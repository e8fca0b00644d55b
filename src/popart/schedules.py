"""Step-size schedules for recency-weighted running averages.

Four schedules are provided:

- ``CONSTANT``: a fixed step size ``beta``, giving exponential moving
  averages that weight recent data more heavily.
- ``INVERSE_T``: ``beta_t = 1/t``, giving exact sample averages.
- ``BIAS_CORRECTED``: ``beta_t = beta / (1 - (1 - beta)**t)``.  Emits
  exactly 1 at t=1 and decays monotonically to ``beta``, so the running
  average keeps the relative weights of a constant-``beta`` average while
  removing any dependence on the initial value.
- ``HARMONIC``: ``beta_t = beta / (1 + t/tau)``, a Robbins-Monro style
  schedule (divergent sum, summable squares) used as the default for
  :class:`~popart.stats.Normalizer` and for the percentile and
  minibatch-extreme trackers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .values import check_setting, real


class ScheduleKind(str, Enum):
    CONSTANT = "constant"
    INVERSE_T = "inverse_t"
    BIAS_CORRECTED = "bias_corrected"
    HARMONIC = "harmonic"


@dataclass
class StepSizeSchedule:
    """Emits a step size ``beta_t`` in (0, 1] for each step ``t >= 1``.

    ``base_beta`` is ignored by ``INVERSE_T``.  ``tau`` only applies to
    ``HARMONIC``.  ``t`` starts at 0; call :meth:`step` to advance the
    counter and obtain the step size for the new step.
    """

    kind: ScheduleKind = ScheduleKind.CONSTANT
    base_beta: float = 0.1
    tau: float = 1000.0
    t: int = 0

    def __post_init__(self) -> None:
        self.kind = ScheduleKind(self.kind)
        # NaN fails the comparisons, so it is rejected too
        if self.kind is not ScheduleKind.INVERSE_T:
            check_setting("base_beta", self.base_beta, lambda b: 0.0 < real(b) <= 1.0)
        if self.kind is ScheduleKind.BIAS_CORRECTED and 1.0 - self.base_beta == 1.0:
            raise ValueError(f"base_beta {self.base_beta!r} too small: 1 - base_beta is 1")
        if self.kind is ScheduleKind.HARMONIC:
            check_setting("tau", self.tau, lambda t: 0.0 < real(t) < math.inf)

    def beta(self) -> float:
        """Step size for the current value of ``t`` (requires ``t >= 1``)."""
        if self.t < 1:
            raise ValueError("schedule not started; t must be >= 1")
        if self.kind is ScheduleKind.CONSTANT:
            return self.base_beta
        if self.kind is ScheduleKind.INVERSE_T:
            return 1.0 / self.t
        if self.kind is ScheduleKind.BIAS_CORRECTED:
            if self.t == 1:
                return 1.0  # beta/(1-(1-beta)) exactly, free of rounding
            decay = (1.0 - self.base_beta) ** self.t
            return self.base_beta / (1.0 - decay)
        return self.base_beta / (1.0 + self.t / self.tau)

    def step(self) -> float:
        """Advance ``t`` by one and return ``beta_t``."""
        self.t += 1
        return self.beta()


def constant(beta: float) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.CONSTANT, base_beta=beta)


def inverse_t() -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.INVERSE_T)


def bias_corrected(beta: float) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.BIAS_CORRECTED, base_beta=beta)


def harmonic(beta0: float = 0.1, tau: float = 1000.0) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.HARMONIC, base_beta=beta0, tau=tau)
