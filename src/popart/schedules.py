"""Step-size schedules for recency-weighted running averages.

Four schedules are provided, each built by the function of its name:

- :func:`constant`: a fixed step size ``beta``, giving exponential moving
  averages that weight recent data more heavily.
- :func:`inverse_t`: ``beta_t = 1/t``, giving exact sample averages.
- :func:`bias_corrected`: ``beta_t = beta / (1 - (1 - beta)**t)``.  Emits
  exactly 1 at t=1 and decays monotonically to ``beta``, so the running
  average keeps the relative weights of a constant-``beta`` average while
  removing any dependence on the initial value.
- :func:`harmonic`: ``beta_t = 0.1 / (1 + t/1000)``, a Robbins-Monro style
  schedule (divergent sum, summable squares) used as the default for
  :class:`~popart.stats.Normalizer` and as the schedule of the percentile
  and minibatch-extreme trackers.

A schedule hands out its step sizes in one way only:
:meth:`StepSizeSchedule.step` advances the step count ``t``, which every
schedule starts at 0 and no constructor takes, and returns ``beta_t`` for
the new ``t``.  :meth:`StepSizeSchedule.beta_at` gives the step size of
any step and moves nothing.  The statistics that own a schedule keep no
count of their own; a :class:`~popart.stats.Normalizer`'s is its
``schedule.t``.

Every step size lies in ``(0, 1]``, up to ``t = sys.maxsize``, the most
steps a count holds: there ``beta_t`` is about 1.08e-17 for
:func:`harmonic` and 1.08e-19 for :func:`inverse_t`, and it is at least
``beta`` for the other two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .values import check_setting, real


@dataclass
class StepSizeSchedule:
    """Emits a step size ``beta_t`` in (0, 1] for each step ``t >= 1``.

    Built by :func:`constant`, :func:`inverse_t`, :func:`bias_corrected`
    or :func:`harmonic`, each of which makes its own subclass.  ``base_beta``
    is the ``beta`` that :func:`constant` and :func:`bias_corrected` take,
    0.1 for :func:`harmonic` and unused by :func:`inverse_t`.  ``t`` counts
    the steps taken and starts at 0, which is not a setting; call
    :meth:`step` to advance it and obtain the step size for the new step.
    """

    base_beta: float
    t: int = field(default=0, init=False)

    def step(self) -> float:
        """Advance ``t`` by one and return ``beta_t``."""
        t = self.t + 1
        self.t = t
        return self.beta_at(t)

    def beta_at(self, t: int) -> float:
        """``beta_t`` for step ``t``, by the subclass's rule; ``t`` stays."""
        raise NotImplementedError


class _Constant(StepSizeSchedule):
    def beta_at(self, t: int) -> float:
        return self.base_beta


class _InverseT(StepSizeSchedule):
    def beta_at(self, t: int) -> float:
        return 1.0 / t


class _BiasCorrected(StepSizeSchedule):
    def beta_at(self, t: int) -> float:
        if t == 1:
            return 1.0  # beta/(1-(1-beta)) exactly, free of rounding
        return self.base_beta / (1.0 - (1.0 - self.base_beta) ** t)


class _Harmonic(StepSizeSchedule):
    def beta_at(self, t: int) -> float:
        return self.base_beta / (1.0 + t / 1000.0)


def _checked(beta: float) -> float:
    # NaN fails the comparisons, so it is rejected too
    check_setting("base_beta", beta, lambda b: 0.0 < real(b) <= 1.0)
    return beta


def constant(beta: float) -> StepSizeSchedule:
    return _Constant(_checked(beta))


def inverse_t() -> StepSizeSchedule:
    return _InverseT(1.0)


def bias_corrected(beta: float) -> StepSizeSchedule:
    if 1.0 - _checked(beta) == 1.0:
        raise ValueError(f"base_beta {beta!r} too small: 1 - base_beta is 1")
    return _BiasCorrected(beta)


def harmonic() -> StepSizeSchedule:
    return _Harmonic(0.1)
