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
policy with no penalty constraint.  Each rule takes its budget-resolved V and
delta as plain arguments, which :meth:`PolicySpec.build` computes, and checks
every argument when built, with one guard for 0 <= delta < c.

The online index is computed in factored form,

    gamma(k) = A(k) + q B(k) - sqrt(ln n) (C(k) +/- q D(k)),

where A..D depend only on arm k's own tallies.  A pull changes one arm's
terms, so the online rule recomputes A..D at the entries pulled in an epoch
as it observes them, from the tally entries the pull updated (O(m) work
over m episodes), and spends its full-width passes on combining them with
the queue and the epoch count.  It copies each row's queue into its index
buffer first, so that no product with the queue broadcasts a column.  A
queue pinned at zero reads only A and C, and its rule holds no B or D.

Each built-in policy is written once, in vector form over m independent
episodes (:class:`VectorPolicy`).  The lockstep engine runs it on a whole
batch; the scalar ``select`` / ``observe`` of :class:`BanditPolicy` run the
same code with m = 1, so both paths share every floating-point operation.
A policy owns its per-arm pull and cost tallies, with its other per-row
state: it makes them when it starts, adds each pull to them, and only then
observes the pull's outcome.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from dataclasses import dataclass

import numpy as np

from .model import BanditPolicy, Bounds, Instance, Outcome, categorical, check_simplex
from .model import _is_int, check_int, check_real, derive_bounds

__all__ = [
    "DeltaOutOfRange",
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
_LCB_TOL = 1e-9
_ONE_ROW = np.ones(1, dtype=bool)


class DeltaOutOfRange(ValueError):
    """Queue tightening delta reached or exceeded c."""


# ---------------------------------------------------------------------------
# rule arithmetic, elementwise on arrays of any broadcastable shape
# ---------------------------------------------------------------------------


def _queue_step(q, x, y, cd):
    """One virtual-queue step q' = max(0, q + y - cd x) with cd = c - delta.

    A zero outcome (x = y = 0) leaves q unchanged bit for bit.
    """
    return np.maximum(0.0, q + y - cd * x)


def _score(neg_vr, q, y_rate, out=None):
    """Drift-plus-penalty score -V r + q y, given -V r; ``out`` is an optional buffer."""
    return np.add(np.multiply(q, y_rate, out=out), neg_vr, out=out)


# a computed score fl(fl(q b) + a) lies within 2**-52 (|a| + q |b|) of its
# exact value; the envelope takes four times that bound for each arm of a
# pair, and an absolute floor, so that the rounding of its own interval ends
# stays inside the surplus
_MARGIN = 2.0**-50
_FLOOR = np.finfo(float).tiny


def _envelope(a, b):
    """The lower envelope of the score lines a_k + q b_k over q >= 0, as safe intervals.

    Returns ``(lo, hi, arm)``: interval i is (lo[i], hi[i + 1]) with the arm
    arm[i + 1], and ``lo`` ascends, so j = ``searchsorted(lo, q)`` picks the
    last interval that starts below q, and q lies in it if q < hi[j]; entry
    0 of ``hi`` and ``arm`` starts no interval, and hi[0] is -inf.  At every
    float q >= 0 inside an interval, the computed score (:func:`_score`) of
    its arm is below every other arm's, except arms equal to it in both
    coefficients, which tie with it bit for bit and come after it in index
    order; so the argmin of the computed scores is that arm.  An interval
    holds the q at which the exact gap from its arm's line to each other
    line exceeds ``_MARGIN`` times the sum of both lines' magnitudes plus
    ``_FLOOR``, up to the largest q whose product q b cannot overflow (with
    a <= 0 <= b, as for rates, the sum in a score cannot).  O(K^2) array
    work.
    """
    abs_a, abs_b = np.abs(a), np.abs(b)
    # an overflow or a NaN on the way only ever empties an interval
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # [k, j]: the margin-reduced gap (intercept, slope) of line j over line k
        gap_a = a - a[:, None] - (_MARGIN * (abs_a + abs_a[:, None]) + _FLOOR)
        gap_b = b - b[:, None] - (_MARGIN * (abs_b + abs_b[:, None]) + _FLOOR)
        root = -gap_a / gap_b
        # each pair's condition gap_a + q gap_b > 0 bounds q from below or above
        lower = np.where(gap_b > 0.0, root, -np.inf)
        upper = np.where(gap_b < 0.0, root, np.where(gap_b > 0.0, np.inf, -np.inf))
        # an arm ties bit for bit with its equals, so the lowest index of them
        # has no bound from the others and the others never win
        same = (a == a[:, None]) & (b == b[:, None])
        lower[same], upper[same] = -np.inf, np.inf
        lo = lower.max(axis=1)
        hi = np.minimum(upper.min(axis=1), np.finfo(float).max / (2.0 * abs_b.max()))
        # an interval with no float q >= 0 inside is dropped, so that the
        # rest, which no such q shares, sort by lo
        inside = np.maximum(np.nextafter(lo, np.inf), 0.0) < hi
    arm = np.flatnonzero(inside & ~np.tril(same, -1).any(axis=1))
    arm = arm[np.argsort(lo[arm])]
    return lo[arm], np.append(-np.inf, hi[arm]), np.append(0, arm)


def _true_coefficients(instance: Instance, v: float):
    """Score coefficients (-V E[R]/E[X], E[Y]/E[X]) per arm at the true means.

    Raises ValueError if either overflows.
    """
    ex, er, ey = instance.rate_means()
    with np.errstate(over="ignore"):
        coefficients = -v * (er / ex), ey / ex
    if not np.isfinite(coefficients).all():
        raise ValueError(f"v = {v:.6g} overflows the offline scores")
    return coefficients


def _unit_radius(t, alpha):
    """Confidence radius per unit sqrt(ln n): sqrt(2 alpha / t)."""
    return np.sqrt(2.0 * alpha / t)


def _empirical_rates(t, sum_x, sum_r, sum_y, floor):
    """Clamped empirical (mean cost, reward rate, penalty rate).

    Each mean is clipped to at most 1; the cost mean is additionally floored
    at ``floor`` so the rate denominators stay positive even when every cost
    sample was zero.  A ``sum_y`` of None gives a penalty rate of None.
    """
    x_hat = np.maximum(floor, np.minimum(1.0, sum_x / t))
    r_hat = np.minimum(1.0, sum_r / t) / x_hat
    y_hat = None if sum_y is None else np.minimum(1.0, sum_y / t) / x_hat
    return x_hat, r_hat, y_hat


def _index_terms(t, sum_x, sum_r, sum_y, v, alpha, floor):
    """Per-(row, arm) terms (A, B, C, D) of the factored online index.

    A = -V r_hat, B = y_hat, C = V w (1 + r_hat) and D = w (1 + y_hat) with
    w = sqrt(2 alpha / t) / x_hat.  They depend only on one arm's own tallies,
    so a pull changes the terms of that (row, arm) entry alone.  An arm not
    yet pulled (t = 0) counts as one pull, so its terms stay finite.  A
    ``sum_y`` of None gives (A, C) alone, the terms a queue pinned at zero
    reads.
    """
    # a rule refreshes the entries of finished rows too, with their zero
    # outcomes, and a row that ended inside exploration has unpulled arms
    t = np.maximum(t, 1.0)
    x_hat, r_hat, y_hat = _empirical_rates(t, sum_x, sum_r, sum_y, floor)
    w = _unit_radius(t, alpha) / x_hat
    a, c = -v * r_hat, v * w * (1.0 + r_hat)
    return (a, c) if y_hat is None else (a, y_hat, c, w * (1.0 + y_hat))


def _combine(terms, q, log_n_prev, variant, out=None, work=None):
    """Index gamma = A + q B - sqrt(ln n) (C +/- q D) from the terms.

    The queue-side term is subtracted (``lcb-both``, a true lower confidence
    bound) or added (``literal-paper``).  ``q=None`` stands for a queue
    pinned at zero: ``terms`` are then (A, C), and give A - sqrt(ln n) C,
    the same argmin as q = 0.  ``out`` and ``work`` are optional buffers of
    the result's shape, and ``q`` may be ``out`` itself, filled with each
    row's queue: q D is taken into ``work`` before q B overwrites ``out``.
    """
    s = math.sqrt(log_n_prev)
    if q is None:
        a, c = terms
        return np.add(np.multiply(c, -s, out=out), a, out=out)
    a, b, c, d = terms
    unc = np.multiply(q, d, out=work)
    unc = (np.add if variant == VARIANT_LCB_BOTH else np.subtract)(c, unc, out=work)
    unc = np.multiply(unc, s, out=work)
    return np.subtract(_score(a, q, b, out), unc, out=out)


def _tally(a, flat, value):
    """Add ``value`` to the (m, K) array ``a`` at the flat (row, arm) entries ``flat``.

    Returns the updated entries: one gather, one add and one scatter, where
    ``a[flat] += value`` then ``a.take(flat)`` would gather twice.  ``flat``
    holds one entry per row, so no entry is added to twice.
    """
    a = a.reshape(-1)
    entries = a.take(flat)
    entries += value
    a[flat] = entries
    return entries


def denominator_floor(budget: float) -> float:
    """Floor for the empirical mean cost, keeping rates finite."""
    return max(1.0 / budget, 1e-6)


def confidence_radius(t: int, n: float, alpha: float) -> float:
    """Uncertainty width sqrt(2 alpha ln(n) / t) for an arm pulled t times."""
    t, n = check_real(t, "t", 1.0), check_real(n, "n", 1.0)
    alpha = check_real(alpha, "alpha", 0.0, open_low=True)
    return math.sqrt(math.log(n)) * float(_unit_radius(t, alpha))


def _tightened(c: float, delta: float) -> float:
    """Tightened penalty rate c - delta, for c > 0 and a queue tightening 0 <= delta < c."""
    c = check_real(c, "c", 0.0, open_low=True)
    delta = check_real(delta, "delta", 0.0)
    if delta >= c:
        raise DeltaOutOfRange(f"delta {delta:.6g} is not below c = {c}; "
                              "lower delta0 or raise the budget")
    return c - delta


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def exploration_schedule(budget: float, bounds: Bounds, alpha: float) -> int:
    """Theoretical initial per-arm pull count.

    Sizes the phase as ceil(beta0 ln(2 B / mu_min)) with
    beta0 = 32 alpha (1 + y_max)^2 / (mu_min^2 eps^2), clamped to at least
    one pull.  The count is orders of magnitude beyond desk-scale budgets and
    exists for fidelity experiments; a count too large for a float (its
    denominator may underflow to zero) raises ValueError.
    """
    scale = bounds.mu_min**2 * bounds.epsilon**2
    beta0 = 32.0 * alpha * (1.0 + bounds.y_max) ** 2 / scale if scale > 0.0 else math.inf
    count = beta0 * math.log(2.0 * budget / bounds.mu_min)
    # max(count, 1.0) keeps a NaN count for check_real to refuse
    return math.ceil(check_real(max(count, 1.0), "theoretical exploration count", 1.0))


def param_schedule(
    budget: float, v0: float, delta0: float, schedule: str, c: float
) -> tuple[float, float]:
    """Budget-indexed (V, delta) pair of the named schedule.

    ``"sqrt"``:     V = v0 sqrt(B), delta = delta0 / sqrt(B).
    ``"sqrt-log"``: V = v0 sqrt(B ln B), delta = delta0 sqrt(ln B / B).
    """
    # B > 1 keeps ln(B) positive
    budget = check_real(budget, "budget", 1.0, open_low=True)
    v0 = check_real(v0, "v0", 0.0, open_low=True)
    delta0 = check_real(delta0, "delta0", 0.0)
    if schedule == SCHEDULE_SQRT:
        v = v0 * math.sqrt(budget)
        delta = delta0 / math.sqrt(budget)
    elif schedule == SCHEDULE_SQRT_LOG:
        log_b = math.log(budget)
        v = v0 * math.sqrt(budget * log_b)
        delta = delta0 * math.sqrt(log_b / budget)
    else:
        raise ValueError(f"unknown schedule: {schedule!r}")
    _tightened(c, delta)
    return v, delta


# ---------------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------------


class VectorPolicy(BanditPolicy):
    """A built-in policy in vector form over m independent episodes (rows).

    A driver calls :meth:`start` once with the number of rows m, then per
    epoch :meth:`select_batch` and :meth:`observe_batch`.  The policy owns
    the (m, K) per-arm tallies ``pulls`` and ``cost``: :meth:`start` zeroes
    them, and ``observe_batch`` adds each row's pull to them at its flat
    (row, arm) index and hands the updated entries to the rule's own
    :meth:`_observe`.  Rows whose episode has ended add no pull and receive
    zero outcomes, which leave every rule's state unchanged.  ``q`` holds each
    row's virtual queue, which starts at zero (and stays there for rules
    without one).

    A rule names its per-row arrays that carry state from epoch to epoch
    once, in ``_rows`` (an entry may be a tuple of arrays), the tallies
    included; its (m, K) work buffers, which every call writes before it
    reads them, come from :meth:`_buffer`.  :meth:`keep` narrows the former
    to the rows still running and drops the latter, so the engine can drop
    finished episodes mid-batch.

    The scalar :meth:`select` / :meth:`observe` are the m = 1 case, on the
    one row that construction starts; :meth:`select` reads its epoch from
    the tallies (the sum of the row's pulls), so :meth:`start` restarts it
    at epoch 0.  Rules with ``uses_stream``
    consume one policy uniform per row and epoch, drawn at m = 1 from
    ``rng`` (:meth:`select` refuses such a rule built without one);
    drivers open policy streams only for them, and other rules ignore any
    ``u`` they are passed.  A ``budget_free`` rule is built the
    same at every budget, so its episode at a budget is a prefix of its
    episode at any larger one; a driver may run it once for all budgets.
    """

    uses_stream = False
    budget_free = False
    _rows = ("q", "lcb_ok", "pulls", "cost")

    def __init__(self, n_arms: int, rng: np.random.Generator | None = None):
        self._k = int(n_arms)
        self._rng = rng
        self.start(1)

    def start(self, m: int, truth: Instance | None = None) -> None:
        """Begin a fresh episode in each of ``m`` rows.

        The (m, K) tallies are made zero, as at an episode's first epoch, and
        the per-row state starts where no pull has moved it: a zero queue, and
        the online rule's index terms at their one-pull values.

        With ``truth`` given, ``lcb_ok`` records per row whether an
        optimistic index stayed at or below the true-mean score at every
        decision (rules without such an index leave it all True); otherwise
        ``lcb_ok`` is None.
        """
        self.pulls, self.cost = np.zeros((m, self._k)), np.zeros((m, self._k))
        self.q = np.zeros(m)
        self.lcb_ok = None if truth is None else np.ones(m, dtype=bool)
        # row i's entries start at flat index i * K of every (m, K) array
        self._base = np.arange(m) * self._k
        self._scratch = {}

    def keep(self, rows) -> None:
        """Keep only the given ``rows`` of every per-row array.

        ``rows`` indexes the current rows in increasing order.  The arrays in
        ``_rows`` keep those rows (as copies, so they stay contiguous); the
        work buffers are dropped, so that narrowing never holds two copies of
        one.
        """
        # the kept rows are rows 0 .. len(rows) - 1 of every narrowed array
        self._base = self._base[:len(rows)]
        self._scratch = {}
        for name in self._rows:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = tuple(a[rows] for a in value)
            elif value is not None:
                value = value[rows]
            setattr(self, name, value)

    def _buffer(self, name: str) -> np.ndarray:
        """The (m, K) work buffer ``name``, made on first use at the tallies' width."""
        # a buffer lives until keep or start: freeing per-epoch (m, K)
        # temporaries let the C allocator return their pages to the system and
        # fault them in again every epoch (measured on a process's first K=50,
        # 1024-episode batch: about 250,000 page faults with per-epoch
        # temporaries, about 3,400 with kept buffers)
        if name not in self._scratch:
            self._scratch[name] = np.empty(self.pulls.shape)
        return self._scratch[name]

    @abstractmethod
    def select_batch(self, n: int, live, u) -> np.ndarray:
        """Arm index of every row at the epoch after ``n`` completed pulls.

        ``live`` is the (m,) mask of running episodes and ``u`` the (m,)
        policy uniforms (None unless ``uses_stream``).
        """

    def observe_batch(self, arms, live, x, r, y) -> None:
        """Add each row's pull of ``arms`` to the tallies, then record its (m,) outcomes.

        ``live`` is the (m,) mask of running episodes: an ended row adds no
        pull, and its outcomes are zero.  Each tally is updated with one
        gather, one add and one scatter (:func:`_tally`), and its updated
        entries go to :meth:`_observe`.
        """
        flat = self._base + arms
        self._observe(flat, _tally(self.pulls, flat, live), _tally(self.cost, flat, x), x, r, y)

    def _observe(self, flat, t, sum_x, x, r, y) -> None:
        """The rule's own update.

        ``flat`` holds each row's pull as row * K + arm, and ``t`` and
        ``sum_x`` the pulled entries of the pull and cost tallies, this pull
        included.
        """

    @property
    def queue(self) -> float:
        return float(self.q[0])

    def select(self) -> int:
        if self.uses_stream and self._rng is None:
            raise ValueError(f"{type(self).__name__} draws each pull from a policy stream, "
                             "and it was built without one (policy_rng=None)")
        u = self._rng.random(1) if self.uses_stream else None
        # the tallies count whole pulls, so their sum is the exact epoch
        return int(self.select_batch(int(self.pulls.sum()), _ONE_ROW, u)[0])

    def observe(self, arm: int, outcome: Outcome) -> None:
        x, r, y = (np.array([value]) for value in outcome)
        self.observe_batch(np.array([arm]), _ONE_ROW, x, r, y)


class StationaryPolicy(VectorPolicy):
    """Pull arm k with probability p_k, independently each epoch."""

    uses_stream = True
    budget_free = True

    def __init__(self, p, rng: np.random.Generator | None):
        self._cum = np.cumsum(check_simplex(p))
        super().__init__(self._cum.size, rng)

    def select_batch(self, n, live, u):
        return categorical(self._cum, u)


class StaticPolicy(VectorPolicy):
    """Always pull one fixed arm of ``n_arms``."""

    budget_free = True

    def __init__(self, arm: int, n_arms: int):
        check_int(arm, "arm", 0)
        check_int(n_arms, f"n_arms for arm index {arm}", arm + 1)
        self._arm = int(arm)
        super().__init__(n_arms)

    def select_batch(self, n, live, u):
        return np.full(live.shape[0], self._arm, dtype=np.int64)


class LyOffPolicy(VectorPolicy):
    """Offline drift-plus-penalty policy driven by true rates.

    Its rates are fixed, so each arm's score -V r_k + q y_k is a line in the
    queue q, and the arm a row pulls is the lowest line at its queue.  The
    rule builds the lower envelope of the K lines once (:func:`_envelope`):
    sorted q-intervals, each with the one arm whose computed score wins
    throughout it by more than the rounding of both scores (a margin of four
    times each score's rounding bound), arms equal in both coefficients
    merged into the lowest index.  :meth:`select_batch` finds each row's
    interval with one ``searchsorted``; the rows inside none, within the
    margin of a breakpoint or beyond the largest queue whose scores cannot
    overflow, fall back to the argmin of their own rows' scores.  Either way
    it returns the argmin of :meth:`scores`, lowest index first, bit for bit.
    """

    def __init__(self, instance: Instance, v: float, delta: float):
        self._cd = _tightened(instance.c, delta)
        v = check_real(v, "v", 0.0, open_low=True)
        self._neg_vr, self._y_rates = _true_coefficients(instance, v)
        self._lo, self._hi, self._arms = _envelope(self._neg_vr, self._y_rates)
        super().__init__(instance.n_arms)

    def _scores_at(self, q) -> np.ndarray:
        """(len(q), K) score of each arm at each of the queues ``q``."""
        return _score(self._neg_vr, q[:, None], self._y_rates)

    def scores(self) -> np.ndarray:
        """(m, K) score of each arm at each row's queue."""
        return self._scores_at(self.q)

    def select_batch(self, n, live, u):
        q = self.q
        # the last interval that starts below q holds q if q is below its end
        j = np.searchsorted(self._lo, q)
        arms = self._arms[j]
        miss = np.flatnonzero(q >= self._hi[j])
        if miss.size:
            arms[miss] = np.argmin(self._scores_at(q[miss]), axis=1)
        return arms

    def _observe(self, flat, t, sum_x, x, r, y):
        self.q = _queue_step(self.q, x, y, self._cd)


class LyOnPolicy(VectorPolicy):
    """Online drift-plus-penalty policy with optimistic empirical indices.

    Pulls every arm ``exploration_pulls`` times round-robin, then minimizes
    the confidence-adjusted index each epoch; ``v`` and ``delta`` are the
    budget-resolved V and queue tightening.  ``queue_enabled=False`` pins
    the queue at zero, the unconstrained budgeted-UCB reduction, which reads
    neither ``c`` nor ``delta``.  The constructor checks that ``n_arms`` and
    ``exploration_pulls`` are integers >= 1, ``budget``, ``v`` and ``alpha``
    finite and positive, and, for a live queue, 0 <= ``delta`` < ``c``.
    Per-arm reward and penalty sums ``sum_r`` and ``sum_y`` are kept beside
    the pull and cost tallies of :class:`VectorPolicy`, and all four are
    zeroed by :meth:`start`.

    The index is kept in factored form: ``terms`` holds the (m, K) arrays
    (A, B, C, D) of :func:`_index_terms`, kept equal to a rebuild from the
    tallies after every call.  :meth:`start` begins fresh episodes, on
    zeroed tallies, so it fills each term with its one-pull value (an
    unpulled arm reads as one pull of zero outcomes), computed once at
    construction; :meth:`observe_batch`, the one place terms are computed,
    recomputes only the pulled entries from the updated tally entries, which
    is O(m) work.  So only the combine step and the argmin run over all
    (m, K) entries.  With a live queue, :meth:`select_batch` copies each
    row's queue into its row of the ``index`` buffer, so that the combine
    step multiplies by it elementwise and broadcasts no column, and takes
    its one temporary into a ``work`` buffer.  A pinned queue reads only
    A - sqrt(ln n) C: the rule holds the tallies ``pulls``, ``cost`` and
    ``sum_r`` and the terms (A, C) alone, ``sum_y`` is None, and the combine
    step needs only ``index``.
    """

    _rows = (*VectorPolicy._rows, "sum_r", "sum_y", "terms")

    def __init__(self, n_arms: int, c: float, budget: float, v: float, delta: float = 0.0,
                 alpha: float = 2.0, exploration_pulls: int = 1,
                 index_variant: str = VARIANT_LCB_BOTH, queue_enabled: bool = True):
        check_int(n_arms, "n_arms", 1)
        check_int(exploration_pulls, "exploration_pulls", 1)
        self._floor = denominator_floor(check_real(budget, "budget", 0.0, open_low=True))
        self._v = check_real(v, "v", 0.0, open_low=True)
        self._alpha = check_real(alpha, "alpha", 0.0, open_low=True)
        if index_variant not in _VARIANTS:
            raise ValueError(f"unknown index variant: {index_variant!r}")
        self._cd = _tightened(c, delta) if queue_enabled else None
        self._variant = index_variant
        self._explore_total = int(n_arms) * exploration_pulls
        # the index is largest after one pull at the cost floor with reward
        # and penalty means of 1, and grows with the queue and ln n, which an
        # epoch count below 2**63 bounds; all four terms are checked, though a
        # pinned queue combines only (A, C)
        n = 2.0**63
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _index_terms(1.0, 0.0, 1.0, 1.0, self._v, self._alpha, self._floor)
            q = None if self._cd is None else n
            gamma = _combine(terms[::2] if q is None else terms, q, math.log(n), self._variant)
        if not np.isfinite([*terms, gamma]).all():
            raise ValueError(f"v = {self._v:.6g} and alpha = {self._alpha:.6g} overflow "
                             f"the online index at budget {budget:.6g}")
        # every arm of a fresh episode reads as one pull of zero outcomes
        self._start_terms = _index_terms(1.0, 0.0, 0.0, None if self._cd is None else 0.0,
                                         self._v, self._alpha, self._floor)
        super().__init__(n_arms)

    def start(self, m: int, truth: Instance | None = None) -> None:
        super().start(m, truth)
        self.sum_r = np.zeros_like(self.pulls)
        self.sum_y = None if self._cd is None else np.zeros_like(self.pulls)
        self.terms = tuple(np.full_like(self.pulls, value) for value in self._start_terms)
        if truth is not None:
            self._true_rates = _true_coefficients(truth, self._v)

    def select_batch(self, n, live, u):
        if n < self._explore_total:
            return np.full(live.shape[0], n % self._k, dtype=np.int64)
        index, q, work = self._buffer("index"), None, None
        if self._cd is not None:
            # each row's queue fills its row of the buffer, so that neither
            # queue product of the combine step broadcasts a column
            q, work = index, self._buffer("work")
            q[...] = self.q[:, None]
        gamma = _combine(self.terms, q, math.log(n), self._variant, index, work)
        if self.lcb_ok is not None:
            psi_true = _score(self._true_rates[0], self.q[:, None], self._true_rates[1])
            self.lcb_ok &= (gamma <= psi_true + _LCB_TOL).all(axis=1) | ~live
        return np.argmin(gamma, axis=1)

    def _observe(self, flat, t, sum_x, x, r, y):
        sum_y = None if self.sum_y is None else _tally(self.sum_y, flat, y)
        fresh = _index_terms(t, sum_x, _tally(self.sum_r, flat, r), sum_y,
                             self._v, self._alpha, self._floor)
        for term, value in zip(self.terms, fresh):
            term.reshape(-1)[flat] = value
        if self._cd is not None:
            self.q = _queue_step(self.q, x, y, self._cd)


# ---------------------------------------------------------------------------
# declarative policy description (used by the batch harness and the CLI)
# ---------------------------------------------------------------------------

POLICY_TYPES = ("stationary", "lyoff", "lyon", "ucb_bwi", "static")


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to build a fresh policy for one episode.

    ``p`` (stationary only) may be left None to use the oracle mixture;
    ``arm`` (static only) is a zero-based index.  ``exploration`` is a fixed
    per-arm pull count or the string ``"theoretical"``.

    ``schedule`` names the :func:`param_schedule` forms of (V, delta) for the
    online policy.  The default ``"sqrt"`` reproduces the reference
    experiment behavior: with the log-augmented delta, any delta0 large
    enough to drive the violation negative makes the tightened constraint
    infeasible outright at desk-scale budgets, collapsing the policy onto
    the lowest-penalty arm.  The offline policy always uses the sqrt forms,
    and ``ucb_bwi`` uses delta0 = 0.
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
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.type not in POLICY_TYPES:
            raise ValueError(f"unknown policy type: {self.type!r}")
        if self.type == "static" and self.arm is None:
            raise ValueError("static policy needs an arm index")
        if self.arm is not None and self.type != "static":
            raise ValueError("arm is only valid for static policies")
        if not (self.arm is None or _is_int(self.arm)):
            raise ValueError(f"arm must be an integer index, got {self.arm!r}")
        if self.exploration != "theoretical":
            check_int(self.exploration, "exploration (a pull count or 'theoretical')", 1)
        if self.schedule not in (SCHEDULE_SQRT, SCHEDULE_SQRT_LOG):
            raise ValueError(f"unknown schedule: {self.schedule!r}")
        if self.p is not None:
            if self.type != "stationary":
                raise ValueError("p is only valid for stationary policies")
            # stored as a tuple of floats, so a spec given a list stays hashable
            p = check_simplex(self.p)
            object.__setattr__(self, "p", tuple(p.tolist()))
        for name, open_low in (("v0", True), ("delta0", False), ("alpha", True)):
            value = check_real(getattr(self, name), name, 0.0, open_low=open_low)
            object.__setattr__(self, name, value)
        if self.index_variant not in _VARIANTS:
            raise ValueError(f"unknown index variant: {self.index_variant!r}")

    def check_arms(self, n_arms: int, p=None) -> None:
        """Raise ValueError unless the static arm fits ``n_arms`` and ``p`` (else the spec's) is a
        mixture over that many arms."""
        p = self.p if p is None else p
        if self.type == "static" and not 0 <= self.arm < n_arms:
            raise ValueError(
                f"policy {self.name!r}: static arm index {self.arm} is out of "
                f"range for {n_arms} arms"
            )
        if p is not None:
            try:
                check_simplex(p, n_arms)
            except ValueError as exc:
                raise ValueError(f"policy {self.name!r}: {exc}") from None

    def build(
        self,
        instance: Instance,
        budget: float,
        policy_rng: np.random.Generator,
        p_default: np.ndarray | None = None,
        bounds: Bounds | None = None,
    ) -> VectorPolicy:
        """Construct a per-episode policy object, the one place a spec meets its instance.

        Refuses a static arm or mixture (``p``, else ``p_default``) that does not fit the
        instance; theoretical exploration derives ``bounds`` when None.  ``policy_rng``
        feeds the scalar stationary ``select``; a lockstep driver passes None.
        """
        p = p_default if self.p is None and self.type == "stationary" else self.p
        self.check_arms(instance.n_arms, p)
        if self.type == "static":
            return StaticPolicy(self.arm, instance.n_arms)
        if self.type == "stationary":
            if p is None:
                raise ValueError("stationary policy needs p or an oracle default")
            return StationaryPolicy(p, policy_rng)
        schedule = SCHEDULE_SQRT if self.type == "lyoff" else self.schedule
        delta0 = 0.0 if self.type == "ucb_bwi" else self.delta0
        v, delta = param_schedule(budget, self.v0, delta0, schedule, instance.c)
        if self.type == "lyoff":
            return LyOffPolicy(instance, v, delta)
        pulls = self.exploration
        if pulls == "theoretical":
            bounds = derive_bounds(instance) if bounds is None else bounds
            pulls = exploration_schedule(budget, bounds, self.alpha)
        return LyOnPolicy(instance.n_arms, instance.c, budget, v, delta, self.alpha, pulls,
                          self.index_variant, queue_enabled=(self.type == "lyon"))
