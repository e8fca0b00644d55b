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

A schedule hands out its step sizes in one way only:
:meth:`StepSizeSchedule.step` advances the step count ``t``, which every
schedule starts at 0 and no constructor takes, and returns ``beta_t`` for
the new ``t``.  The statistics that own a schedule keep no count of their
own; a :class:`~popart.stats.Normalizer`'s is its ``schedule.t``.

Every step size lies in ``(0, 1]``.  A harmonic ``beta_t`` shrinks toward
0 and, in floating point, rounds to 0 once ``t / tau`` is large enough: at
``t = 1`` for ``harmonic(0.1, tau=5e-324)``, at ``t = 1000`` for
``harmonic(5e-324)``.  So a harmonic schedule is built only if its
``beta_t`` stays above 0 up to ``t = sys.maxsize``, the most steps a
count holds; and a step whose ``beta_t`` would be 0 raises
``ValueError`` and leaves ``t`` as it was.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
    ``HARMONIC``.  ``t`` counts the steps taken and starts at 0, which is
    not a setting; call :meth:`step` to advance it and obtain the step
    size for the new step.
    """

    kind: ScheduleKind = ScheduleKind.CONSTANT
    base_beta: float = 0.1
    tau: float = 1000.0
    t: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.kind = ScheduleKind(self.kind)
        # NaN fails the comparisons, so it is rejected too
        if self.kind is not ScheduleKind.INVERSE_T:
            check_setting("base_beta", self.base_beta, lambda b: 0.0 < real(b) <= 1.0)
        if self.kind is ScheduleKind.BIAS_CORRECTED and 1.0 - self.base_beta == 1.0:
            raise ValueError(f"base_beta {self.base_beta!r} too small: 1 - base_beta is 1")
        if self.kind is ScheduleKind.HARMONIC:
            check_setting("tau", self.tau, lambda t: 0.0 < real(t) < math.inf)
            if not self._beta_at(sys.maxsize) > 0.0:
                raise ValueError(
                    f"harmonic schedule with base_beta {self.base_beta!r} and tau "
                    f"{self.tau!r}: beta_t rounds to 0 before t = sys.maxsize ({sys.maxsize})"
                )

    def _beta_at(self, t: int) -> float:
        if self.kind is ScheduleKind.CONSTANT:
            return self.base_beta
        if self.kind is ScheduleKind.INVERSE_T:
            return 1.0 / t
        if self.kind is ScheduleKind.BIAS_CORRECTED:
            if t == 1:
                return 1.0  # beta/(1-(1-beta)) exactly, free of rounding
            decay = (1.0 - self.base_beta) ** t
            return self.base_beta / (1.0 - decay)
        return self.base_beta / (1.0 + t / self.tau)

    def step(self) -> float:
        """Advance ``t`` by one and return ``beta_t``.  A ``beta_t`` that
        rounds to 0 raises ``ValueError`` and leaves ``t`` as it was."""
        t = self.t + 1
        beta = self._beta_at(t)
        if not beta > 0.0:
            raise ValueError(
                f"{self.kind.value} step size rounds to 0 at t = {t}; "
                "every step size must lie in (0, 1]"
            )
        self.t = t
        return beta


def constant(beta: float) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.CONSTANT, base_beta=beta)


def inverse_t() -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.INVERSE_T)


def bias_corrected(beta: float) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.BIAS_CORRECTED, base_beta=beta)


def harmonic(beta0: float = 0.1, tau: float = 1000.0) -> StepSizeSchedule:
    return StepSizeSchedule(ScheduleKind.HARMONIC, base_beta=beta0, tau=tau)
