"""Adaptive normalization statistics for streaming targets.

The central object is :class:`Normalizer`, which maintains a running shift
``mu`` and variance ``var`` per output component, and derives the scale as
``sigma = sqrt(var) / spread``.  ``var`` is floored at ``epsilon``, the one
floor; the second moment ``nu = var + mu**2`` is derived for readers.
Updating the statistics *before* consuming a target bounds the normalized
target by ``spread * sqrt((1 - beta_t) / beta_t)`` regardless of the
target distribution, which is what makes the normalization safe against
arbitrarily large spikes.  With ``d = y - mu``, the update leaves ``y -
mu = (1 - beta)*d`` and ``var >= beta*(1 - beta)*d**2``; nothing cancels,
so in floats the bound holds up to the rounding of ``d``, ``beta*d`` and
``mu``:

    |z| <= spread*sqrt((1 - beta_t)/beta_t) * (1 + 2**-49)
           + 2**-50 * max(|y|, |mu_prev|) / sigma

where ``z = normalize(y)`` just after ``update(y)``, ``mu_prev`` is ``mu``
before it and ``sigma`` after it.  :meth:`Normalizer.update` takes any
target up to :data:`MAX_TARGET` (about 1.34e154) in magnitude, the largest
whose square is a finite double, and rejects larger ones.  Each update that
moves the statistics takes one step of the normalizer's
:class:`~popart.schedules.StepSizeSchedule`, so it advances
``normalizer.schedule.t`` by one; one that raises leaves it.
:meth:`Normalizer.next_state` computes the same statistics and moves
nothing, not even ``t``.

Also provided:

- :func:`batch_stats`: one-shot shift and scale of a finite batch.
- :class:`PercentileTracker`: stochastic-approximation tracking of the
  values that a fraction ``(1-p)/2`` of targets exceed / fall below.
- :class:`ExtremeTracker`: moving average of minibatch min/max, which for
  uniform data converges to the same objective with ``p = (B-1)/(B+1)``.
- :func:`spread_from_coverage` / :func:`coverage_from_spread`: the
  erf correspondence between a desired in-band fraction ``p`` of normal
  targets and the spread ``s``.

Both trackers step with the fixed schedule
:func:`~popart.schedules.harmonic`, ``beta_t = 0.1 / (1 + t/1000)``.
"""

from __future__ import annotations

import math

import numpy as np

from .schedules import StepSizeSchedule, harmonic
from .values import MAX, TINY, as_floats, as_vector, check_setting, count, real

DEFAULT_EPSILON = 1e-4
# the largest magnitude whose square is a finite double
MAX_TARGET = math.sqrt(MAX)


class Normalizer:
    """Running shift/scale statistics for ``k`` output components.

    The scale is diagonal: each component has its own ``mu`` and ``var``,
    and ``sigma = sqrt(var) / spread``.  ``var`` is the one floored value:
    it is clamped up to ``epsilon`` after every update, so the scale is
    always finite and positive.  ``nu``, the second moment ``var + mu**2``,
    is derived for readers.  Just after ``update(y)``, ``|normalize(y)|``
    is at most ``spread*sqrt((1 - beta_t)/beta_t)*(1 + 2**-49) +
    2**-50*max(|y|, |mu_prev|)/sigma``, as the module docstring shows.  A
    ``spread`` and ``epsilon`` that would put the scale outside ``[TINY,
    MAX]`` for some target :meth:`update` takes, or whose scales a rescale
    cannot take from 1 or into one another by a finite, positive ratio,
    are rejected here, before any step can move the statistics.
    :meth:`next_state` gives what :meth:`update` would write, and writes
    nothing, so a compensating step rescales its layer to exactly the next
    scale, and raises there if no finite, positive ratio takes the layer's
    scale to it, before the statistics move.
    """

    def __init__(
        self,
        k: int = 1,
        spread: float = 1.0,
        epsilon: float = DEFAULT_EPSILON,
        schedule: StepSizeSchedule | None = None,
    ):
        check_setting("k", k, lambda n: count(n) >= 1)
        # NaN fails the comparison, so it is rejected too
        check_setting("spread", spread, lambda s: 0.0 < real(s) < math.inf)
        check_setting("epsilon", epsilon, lambda e: 0.0 < real(e) < math.inf)
        self.k = k
        self.spread = float(spread)
        self.epsilon = float(epsilon)
        # bounds of the scale over every target update() takes: var is
        # floored at epsilon, and is the variance of targets within
        # MAX_TARGET (at most MAX) plus at most epsilon; a step takes a
        # scale in [TINY, MAX] only, and rescales a layer from 1, a fresh
        # layer's scale, or from one of these scales to another by a ratio
        # that must be finite and positive
        lo, hi = (math.sqrt(v) / self.spread for v in (self.epsilon, MAX + self.epsilon))
        if not (TINY <= lo and hi <= MAX and max(hi, 1.0) / min(lo, 1.0) < math.inf):
            raise ValueError(
                f"invalid spread and epsilon: {spread!r} and {epsilon!r} put the scale in "
                f"[{lo:g}, {hi:g}], outside [{TINY:g}, {MAX:g}] or too wide for a rescale "
                "from 1 or within it"
            )
        self.schedule = schedule if schedule is not None else harmonic()
        self.mu = np.zeros(k)
        self.var = np.full(k, self.epsilon)

    @property
    def nu(self) -> np.ndarray:
        """Second moment per component, ``var + mu**2``: a new array on
        each read, so a write to it changes nothing."""
        return self.var + self.mu**2

    @property
    def sigma(self) -> np.ndarray:
        """Scale per component: ``sqrt(var) / spread``."""
        return np.sqrt(self.var) / self.spread

    def next_state(self, y) -> tuple:
        """The ``mu``, ``var`` and ``sigma`` that :meth:`update` gives for
        ``y``, with nothing moved: ``schedule.t`` stays.  Each is a float
        when ``k`` is 1, as a one-component target may be, and a new array
        of ``k`` otherwise.

        With ``beta`` the schedule's next step size and ``d = y - mu``:
        ``mu + beta*d``, held within :data:`MAX_TARGET`, and ``max((1 -
        beta)*var + (beta*(1 - beta)*d)*d, epsilon)``, whose products stay
        within ``MAX``.  A non-finite target, or one above
        :data:`MAX_TARGET` in magnitude, raises ``ValueError``.
        """
        beta = self.schedule.beta_at(self.schedule.t + 1)
        if self.k == 1:
            # the same IEEE operations, in the same order, as the array
            # path below, on Python floats: for one component numpy's
            # per-call overhead is most of the cost
            (target,) = as_floats(y, 1, -MAX_TARGET, MAX_TARGET, "target")
            mu = self.mu.item()
            d = target - mu
            mu += beta * d
            # a mean of targets can round one ulp past them
            if not -MAX_TARGET <= mu <= MAX_TARGET:
                mu = math.copysign(MAX_TARGET, mu)
            var = max(self.var.item() * (1 - beta) + beta * (1 - beta) * d * d, self.epsilon)
            return mu, var, math.sqrt(var) / self.spread
        arr = as_vector(y, self.k, -MAX_TARGET, MAX_TARGET, "target")
        d = arr - self.mu
        mu = np.clip(self.mu + beta * d, -MAX_TARGET, MAX_TARGET)
        var = np.maximum(self.var * (1 - beta) + beta * (1 - beta) * d * d, self.epsilon)
        return mu, var, np.sqrt(var) / self.spread

    def update(self, y) -> np.ndarray:
        """Write :meth:`next_state`'s ``mu`` and ``var`` into the arrays
        the normalizer holds, take one step of its schedule and return the
        new :attr:`sigma`, an array.  A target :meth:`next_state` rejects
        raises before anything moves."""
        mu, var, sigma = self.next_state(y)
        self.schedule.step()
        self.mu[...], self.var[...] = mu, var
        return np.array(sigma, ndmin=1)

    def normalize(self, y) -> np.ndarray:
        """``(y - mu) / sigma``, for a target :meth:`update` takes."""
        arr = as_vector(y, self.k, -MAX_TARGET, MAX_TARGET, "target")
        return (arr - self.mu) / self.sigma


def batch_stats(targets, spread: float = 1.0) -> tuple[float, float]:
    """Shift and scale of a finite batch of scalar targets: the sample
    mean and ``sqrt(mean((targets - mean)**2)) / spread``, with the
    variance floored at :data:`DEFAULT_EPSILON`, a :class:`Normalizer`'s
    default floor.  The variance is a mean of squared deviations, so it
    does not cancel when the spread is small next to the targets.  A batch
    whose sum or variance is past ``MAX``, the largest double, such as
    ``[1e200, -1e200]``, raises ``ValueError`` naming that limit.
    ``spread`` is checked as a :class:`Normalizer`'s is, a positive finite
    number; one so small that the scale passes ``MAX`` raises
    ``ValueError`` naming the scale.
    """
    check_setting("spread", spread, lambda s: 0.0 < real(s) < math.inf)
    arr = np.asarray(targets, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 targets")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite target")
    # overflow raises below: a sum past MAX gives an inf mean, or a NaN one
    # where partial sums overflow both ways, and then a variance that is too
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(arr.mean())
        var = float(((arr - mu) ** 2).mean())
    if not var < math.inf:
        raise ValueError(f"batch mean {mu:g} or variance {var:g} past the largest double, {MAX:g}")
    scale = math.sqrt(max(var, DEFAULT_EPSILON)) / spread
    if not scale <= MAX:
        raise ValueError(f"scale {scale:g} at spread {spread!r} past the largest double, {MAX:g}")
    return mu, scale


class _BoundsTracker:
    """Shared state of the trackers: bounds ``y_min``/``y_max``, NaN until
    the first update, and the :func:`~popart.schedules.harmonic` schedule
    that moves them."""

    def __init__(self):
        self.schedule = harmonic()
        self.y_min = math.nan
        self.y_max = math.nan

    @property
    def initialized(self) -> bool:
        return math.isfinite(self.y_min)


class PercentileTracker(_BoundsTracker):
    """Tracks ``y_min``/``y_max`` such that a fraction ``(1-p)/2`` of a
    stationary stream exceeds ``y_max`` and the same fraction falls below
    ``y_min``.

    The first observed target seeds both bounds; subsequent targets move
    the bounds by ``beta_t * (indicator - (1-p)/2)``.
    """

    def __init__(self, p: float):
        check_setting("p", p, lambda p: 0.0 < real(p) <= 1.0)
        super().__init__()
        self.p = float(p)

    def update(self, y: float) -> None:
        (y,) = as_floats(y, 1, -MAX, MAX, "target")
        if not self.initialized:
            self.y_min = self.y_max = y
            return
        beta = self.schedule.step()
        tail = (1.0 - self.p) / 2.0
        self.y_max += beta * ((1.0 if y > self.y_max else 0.0) - tail)
        self.y_min -= beta * ((1.0 if y < self.y_min else 0.0) - tail)


class ExtremeTracker(_BoundsTracker):
    """Moving average of minibatch extremes.

    ``y_min`` and ``y_max`` chase the min and max of each minibatch of a
    fixed size ``B``; the first minibatch seeds both.
    """

    def __init__(self, batch_size: int):
        check_setting("batch_size", batch_size, lambda n: count(n) >= 2)
        super().__init__()
        self.batch_size = int(batch_size)

    def update(self, batch) -> None:
        """Move the bounds toward the batch's min and max.  Of ``0.0``
        and ``-0.0`` the min is ``-0.0`` and the max ``0.0``, as in IEEE
        754's minimum and maximum, wherever they sit in the batch."""
        # one reading, on Python floats: numpy's cost per call is most of
        # a reduction of a few values
        values = as_floats(batch, self.batch_size, -MAX, MAX, "target")
        lo, hi = min(values), max(values)
        if lo == 0.0 or hi == 0.0:
            # min and max return the first of equal values, 0.0 or -0.0
            signs = [math.copysign(1.0, v) for v in values if v == 0.0]
            lo = lo if lo else math.copysign(0.0, min(signs))
            hi = hi if hi else math.copysign(0.0, max(signs))
        if not self.initialized:
            self.y_min, self.y_max = lo, hi
            return
        beta = self.schedule.step()
        self.y_min += beta * (lo - self.y_min)
        self.y_max += beta * (hi - self.y_max)


def _erf_inverse(p: float) -> float:
    """Inverse of :func:`math.erf` on (0, 1), to about double precision over
    the whole interval."""
    if p < 1e-8:
        # erfinv(p) = sqrt(pi)/2 * (p + pi/12 * p**3 + ...), one term suffices
        return 0.5 * math.sqrt(math.pi) * p
    # imported here: statistics pulls in decimal and fractions, about 5 ms
    # at import, and only the spread/coverage pair needs it
    from statistics import NormalDist

    # erfinv(p) = Phi^-1((1 + p) / 2) / sqrt(2), written with the lower
    # tail: (1 - p) / 2 is exact near p = 1, where (1 + p) / 2 rounds to 1
    return -NormalDist().inv_cdf((1.0 - p) / 2.0) / math.sqrt(2.0)


def spread_from_coverage(p: float) -> float:
    """Spread ``s`` such that a fraction ``p`` of normally distributed
    targets lands in ``[-1, 1]`` after normalization: ``p = erf(1/(sqrt(2) s))``.
    """
    check_setting("p", p, lambda p: 0.0 < real(p) < 1.0)
    return 1.0 / (math.sqrt(2.0) * _erf_inverse(p))


def coverage_from_spread(s: float) -> float:
    """Inverse of :func:`spread_from_coverage`."""
    check_setting("s", s, lambda s: 0.0 < real(s) < math.inf)  # as a Normalizer's spread
    return math.erf(1.0 / (math.sqrt(2.0) * s))
