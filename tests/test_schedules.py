import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart.schedules import (
    ScheduleKind,
    StepSizeSchedule,
    bias_corrected,
    constant,
    harmonic,
    inverse_t,
)


@pytest.mark.parametrize(
    "settings",
    [
        {"kind": ScheduleKind.HARMONIC, "base_beta": 0.1, "tau": 1000.0, "t": -1001},
        {"kind": ScheduleKind.INVERSE_T, "t": -1},
        {"t": 2.5},
    ],
    ids=["harmonic-1001", "inverse_t-1", "constant2.5"],
)
def test_step_count_is_not_a_constructor_setting(settings):
    # t counts the steps taken; given to the constructor, t = -1001 made the
    # next harmonic step divide by zero, t = -1 the next inverse_t step, and
    # t = 2.5 counted 3.5
    with pytest.raises(TypeError, match="unexpected keyword argument 't'"):
        StepSizeSchedule(**settings)
    schedule = StepSizeSchedule(**{k: v for k, v in settings.items() if k != "t"})
    assert schedule.t == 0
    schedule.step()
    assert schedule.t == 1


def test_constant_emits_base_beta():
    s = constant(0.25)
    assert [s.step() for _ in range(5)] == [0.25] * 5


def test_inverse_t_exact():
    s = inverse_t()
    assert s.step() == 1.0
    assert s.step() == 0.5
    assert s.step() == pytest.approx(1.0 / 3.0)
    assert s.step() == 0.25


def test_bias_corrected_first_step_is_exactly_one():
    s = bias_corrected(0.1)
    assert s.step() == 1.0


def test_bias_corrected_limits():
    s = bias_corrected(0.1)
    s.t = 9_999
    assert s.step() == pytest.approx(0.1, abs=1e-12)


def test_bias_corrected_monotone_decreasing():
    s = bias_corrected(0.3)
    betas = [s.step() for _ in range(50)]
    assert all(a >= b for a, b in zip(betas, betas[1:]))
    assert betas[0] == 1.0
    assert betas[-1] > 0.3


def test_harmonic_decay():
    s = harmonic(0.1, tau=1000.0)
    s.t = 999
    assert s.step() == pytest.approx(0.05)
    # divergent sum, summable squares: beta_t ~ c/t for large t
    s.t = 10**6 - 1
    assert s.step() == pytest.approx(0.1 * 1000.0 / (1000.0 + 10**6), rel=1e-6)


@pytest.mark.parametrize("beta", [0.0, -0.1, 1.5])
def test_invalid_base_beta_rejected(beta):
    with pytest.raises(ValueError):
        constant(beta)


@pytest.mark.parametrize("beta", [1e-17, 5e-324])
def test_bias_corrected_rejects_beta_lost_in_one_minus_beta(beta):
    # 1 - beta rounds to 1, so 1 - (1 - beta)**t is 0 and beta_2 divides by it
    with pytest.raises(ValueError, match="too small"):
        bias_corrected(beta)


def test_invalid_tau_rejected():
    # a NaN tau used to pass the "<= 0" check and give NaN step sizes
    for tau in (0.0, math.nan):
        with pytest.raises(ValueError, match="invalid tau"):
            StepSizeSchedule(ScheduleKind.HARMONIC, base_beta=0.1, tau=tau)


@settings(deadline=None, max_examples=50)
@given(
    kind=st.sampled_from(list(ScheduleKind)),
    base_beta=st.floats(1e-6, 1.0),
    t=st.integers(1, 10**6),
)
def test_emitted_beta_always_in_unit_interval(kind, base_beta, t):
    s = StepSizeSchedule(kind, base_beta=base_beta)
    s.t = t - 1
    assert 0.0 < s.step() <= 1.0


@pytest.mark.parametrize(("beta0", "tau"), [(0.1, 5e-324), (5e-324, 1000.0)])
def test_harmonic_whose_step_size_rounds_to_zero_is_rejected(beta0, tau):
    # 1/tau overflows in the first, so beta_1 was 0.0; in the second
    # beta_t rounds to 0.0 from t = 1000 on
    with pytest.raises(ValueError, match=r"rounds to 0 before t = sys\.maxsize"):
        harmonic(beta0, tau)


def exhausted_harmonic():
    """A harmonic schedule one step short of a step size that rounds to 0:
    ``1e-300 / (1 + t / 1e-4)`` is below half the smallest double past
    ``t = 1e30``, far beyond any count a run makes."""
    s = harmonic(1e-300, tau=1e-4)
    s.t = 10**30
    return s


def test_step_whose_size_rounds_to_zero_raises_and_keeps_t():
    s = exhausted_harmonic()
    with pytest.raises(ValueError, match=r"rounds to 0 at t = 10{29}1; .* \(0, 1\]"):
        s.step()
    assert s.t == 10**30
    s.t = 999
    assert 0.0 < s.step() <= 1.0 and s.t == 1000
