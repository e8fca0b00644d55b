"""Adaptive normalization statistics for streaming targets.

The central object is :class:`Normalizer`, which maintains a running shift
``mu`` (first moment) and second moment ``nu`` per output component, and
derives the scale as ``sigma = sqrt(nu - mu**2) / spread``.  Updating the
statistics *before* consuming a target guarantees the normalized target is
bounded by ``spread * sqrt((1 - beta_t) / beta_t)`` regardless of the
target distribution, which is what makes the normalization safe against
arbitrarily large spikes.  The second moment holds squared targets, so
:meth:`Normalizer.update` takes any target up to :data:`MAX_TARGET` (about
1.34e154) in magnitude, the largest whose square is a finite double, and
rejects larger ones.  Each update that moves the statistics takes one
step of the normalizer's :class:`~popart.schedules.StepSizeSchedule`, so
it advances ``normalizer.schedule.t`` by one; one that raises leaves it.

Also provided:

- :func:`batch_stats`: one-shot moment statistics of a finite batch.
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

    The scale is diagonal: each component has its own ``mu`` and ``nu``.
    ``nu - mu**2`` is clamped up to ``epsilon`` after every update so the
    scale is always finite and positive: a ``spread`` and ``epsilon`` that
    would put it outside ``[TINY, MAX]`` for some target :meth:`update`
    takes are rejected here, before any step can move the statistics.
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
        # bounds of the scale over every target update() takes: the
        # variance is floored at epsilon, and nu, a mean of squares (each
        # at most MAX) clamped up to mu**2 + epsilon, is at most MAX +
        # epsilon; a step takes a scale in [TINY, MAX] only
        lo, hi = (math.sqrt(v) / self.spread for v in (self.epsilon, MAX + self.epsilon))
        if not (TINY <= lo and hi <= MAX):
            raise ValueError(
                f"invalid spread and epsilon: {spread!r} and {epsilon!r} put the scale in "
                f"[{lo:g}, {hi:g}], outside [{TINY:g}, {MAX:g}]"
            )
        self.schedule = schedule if schedule is not None else harmonic()
        self.mu = np.zeros(k)
        # the clamped second moment of mu = 0
        self.nu = np.full(k, self.epsilon)

    @property
    def sigma(self) -> np.ndarray:
        """Scale per component: ``sqrt(nu - mu**2) / spread``.

        The variance is floored at ``epsilon`` here as well as in the
        stored state: when ``mu**2`` is huge the stored clamp can be lost
        to rounding (``mu**2 + epsilon`` rounds back to ``mu**2``).
        """
        return self._sigma(self.mu**2)

    def _sigma(self, mu_sq: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.nu - mu_sq, self.epsilon)) / self.spread

    def update(self, y) -> np.ndarray:
        """Move ``mu`` and ``nu`` toward the new target, clamp, and return
        the new :attr:`sigma`.

        ``y`` is checked before anything moves: a non-finite target, or
        one above :data:`MAX_TARGET` in magnitude (its square would
        overflow ``nu``), raises ``ValueError``.
        """
        if self.k == 1:
            # the same IEEE operations, in the same order, as the array
            # path below, on Python floats: for one component numpy's
            # per-call overhead is most of the cost
            (target,) = as_floats(y, 1, -MAX_TARGET, MAX_TARGET, "target")
            beta = self.schedule.step()
            mu, nu = self.mu.item(), self.nu.item()
            mu += beta * (target - mu)
            # a mean of targets can round one ulp past them, where mu**2 overflows
            if not -MAX_TARGET <= mu <= MAX_TARGET:
                mu = math.copysign(MAX_TARGET, mu)
            nu += beta * (target * target - nu)
            mu_sq = mu * mu
            nu = max(nu, mu_sq + self.epsilon)
            self.mu[0], self.nu[0] = mu, nu
            return np.array([math.sqrt(max(nu - mu_sq, self.epsilon)) / self.spread])
        arr = as_vector(y, self.k, -MAX_TARGET, MAX_TARGET, "target")
        beta = self.schedule.step()
        self.mu += beta * (arr - self.mu)
        np.clip(self.mu, -MAX_TARGET, MAX_TARGET, out=self.mu)
        self.nu += beta * (arr**2 - self.nu)
        mu_sq = self.mu**2
        np.maximum(self.nu, mu_sq + self.epsilon, out=self.nu)
        return self._sigma(mu_sq)

    def normalize(self, y) -> np.ndarray:
        """``(y - mu) / sigma``, for a target :meth:`update` takes."""
        arr = as_vector(y, self.k, -MAX_TARGET, MAX_TARGET, "target")
        return (arr - self.mu) / self.sigma


def batch_stats(targets, spread: float = 1.0) -> tuple[float, float]:
    """Shift and scale of a finite batch of scalar targets: the sample
    mean and ``sqrt(mean-of-squares - mean**2) / spread``, with the
    variance floored at :data:`DEFAULT_EPSILON`, a :class:`Normalizer`'s
    default floor.
    """
    arr = np.asarray(targets, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 targets")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite target")
    mu = float(arr.mean())
    var = max(float((arr**2).mean()) - mu**2, DEFAULT_EPSILON)
    return mu, math.sqrt(var) / spread


class _BoundsTracker:
    """Shared state of the trackers: bounds ``y_min``/``y_max``, NaN until
    the first update, the shift and scale derived from them, and the
    :func:`~popart.schedules.harmonic` schedule that moves them."""

    def __init__(self):
        self.schedule = harmonic()
        self.y_min = math.nan
        self.y_max = math.nan

    @property
    def initialized(self) -> bool:
        return math.isfinite(self.y_min)

    @property
    def mu(self) -> float:
        return 0.5 * (self.y_max + self.y_min)

    @property
    def sigma(self) -> float:
        return 0.5 * (self.y_max - self.y_min)


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
    fixed size ``B``; the first minibatch seeds both.  The derived shift
    and scale are the midpoint and half-range, as for
    :class:`PercentileTracker`.
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


# the standard library's error function, under the name the package exports
erf = math.erf


def _erf_inverse(p: float) -> float:
    """Inverse of :func:`erf` on (0, 1), to about double precision over
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
    return erf(1.0 / (math.sqrt(2.0) * s))
