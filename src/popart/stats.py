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
rejects larger ones.

Also provided:

- :func:`batch_stats`: one-shot moment statistics of a finite batch.
- :class:`PercentileTracker`: stochastic-approximation tracking of the
  values that a fraction ``(1-p)/2`` of targets exceed / fall below.
- :class:`ExtremeTracker`: moving average of minibatch min/max, which for
  uniform data converges to the same objective with ``p = (B-1)/(B+1)``.
- :func:`spread_from_coverage` / :func:`coverage_from_spread`: the
  erf correspondence between a desired in-band fraction ``p`` of normal
  targets and the spread ``s``.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress

import numpy as np

from .schedules import StepSizeSchedule, harmonic

DEFAULT_EPSILON = 1e-4
# the largest magnitude whose square is a finite double
MAX_TARGET = math.sqrt(sys.float_info.max)


def _as_vector(y, k: int, limit: float = sys.float_info.max) -> np.ndarray:
    """``y`` as a vector of ``k`` floats, each at most ``limit`` in magnitude
    (by default: finite)."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape != (k,):
        raise ValueError(f"expected {k} target components, got shape {arr.shape}")
    # NaN fails every comparison; for a few components a Python loop is
    # cheaper than numpy's per-call overhead
    if not all(-limit <= v <= limit for v in arr.tolist()):
        if not np.isfinite(arr).all():
            raise ValueError("non-finite target")
        raise ValueError(
            f"target {arr.tolist()} out of range: |y| must be at most {limit:.6g}"
        )
    return arr


def _as_floats(y, k: int, limit: float = sys.float_info.max) -> list[float]:
    """:func:`_as_vector`'s check, giving a list of ``k`` Python floats."""
    if k == 1 and isinstance(y, float) and -limit <= y <= limit:
        return [float(y)]  # a lone valid float, the common target, skips numpy
    return _as_vector(y, k, limit).tolist()


def _check_setting(name: str, value, ok) -> None:
    """Raise ``ValueError`` naming the setting unless ``ok(value)`` is true."""
    with suppress(TypeError):  # a value of the wrong type is invalid
        if ok(value):
            return
    raise ValueError(f"invalid {name}: {value!r}")


class Normalizer:
    """Running shift/scale statistics for ``k`` output components.

    The scale is diagonal: each component has its own ``mu`` and ``nu``.
    ``nu - mu**2`` is clamped up to ``epsilon`` after every update so the
    scale is always finite and positive.
    """

    def __init__(
        self,
        k: int = 1,
        spread: float = 1.0,
        epsilon: float = DEFAULT_EPSILON,
        schedule: StepSizeSchedule | None = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        # NaN fails the comparison, so it is rejected too
        _check_setting("spread", spread, lambda s: 0.0 < s < math.inf)
        _check_setting("epsilon", epsilon, lambda e: 0.0 < e < math.inf)
        self.k = k
        self.spread = float(spread)
        self.epsilon = float(epsilon)
        self.schedule = schedule if schedule is not None else harmonic()
        self.mu = np.zeros(k)
        # the clamped second moment of mu = 0
        self.nu = np.full(k, self.epsilon)

    @property
    def t(self) -> int:
        return self.schedule.t

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
            (target,) = _as_floats(y, 1, MAX_TARGET)
            beta = self.schedule.step()
            mu, nu = self.mu.item(), self.nu.item()
            mu += beta * (target - mu)
            nu += beta * (target * target - nu)
            mu_sq = mu * mu
            nu = max(nu, mu_sq + self.epsilon)
            self.mu[0], self.nu[0] = mu, nu
            return np.array([math.sqrt(max(nu - mu_sq, self.epsilon)) / self.spread])
        arr = _as_vector(y, self.k, MAX_TARGET)
        beta = self.schedule.step()
        self.mu += beta * (arr - self.mu)
        self.nu += beta * (arr**2 - self.nu)
        mu_sq = self.mu**2
        np.maximum(self.nu, mu_sq + self.epsilon, out=self.nu)
        return self._sigma(mu_sq)

    def normalize(self, y) -> np.ndarray:
        arr = _as_vector(y, self.k)
        return (arr - self.mu) / self.sigma


def batch_stats(
    targets, spread: float = 1.0, epsilon: float = DEFAULT_EPSILON
) -> tuple[float, float]:
    """Shift and scale of a finite batch of scalar targets: the sample
    mean and ``sqrt(mean-of-squares - mean**2) / spread``, with the
    variance floored at ``epsilon``.
    """
    arr = np.asarray(targets, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 targets")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite target")
    mu = float(arr.mean())
    var = max(float((arr**2).mean()) - mu**2, epsilon)
    return mu, math.sqrt(var) / spread


class _BoundsTracker:
    """Shared state of the trackers: bounds ``y_min``/``y_max``, NaN until
    the first update, and the shift and scale derived from them."""

    def __init__(self, schedule: StepSizeSchedule | None):
        self.schedule = schedule if schedule is not None else harmonic()
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

    def __init__(self, p: float, schedule: StepSizeSchedule | None = None):
        if not (0.0 < p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {p}")
        super().__init__(schedule)
        self.p = float(p)

    def update(self, y: float) -> None:
        y = float(y)
        if not math.isfinite(y):
            raise ValueError("non-finite target")
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

    def __init__(self, batch_size: int, schedule: StepSizeSchedule | None = None):
        if batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        super().__init__(schedule)
        self.batch_size = int(batch_size)

    def update(self, batch) -> None:
        arr = np.asarray(batch, dtype=float)
        if arr.shape != (self.batch_size,):
            raise ValueError(
                f"expected batch of {self.batch_size}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite target")
        lo = float(arr.min())
        hi = float(arr.max())
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
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must be in (0, 1), got {p}")
    return 1.0 / (math.sqrt(2.0) * _erf_inverse(p))


def coverage_from_spread(s: float) -> float:
    """Inverse of :func:`spread_from_coverage`."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return erf(1.0 / (math.sqrt(2.0) * s))
