import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from popart.schedules import bias_corrected, constant, harmonic, inverse_t


@pytest.mark.parametrize(
    ("make", "settings"),
    [(harmonic, {"t": -1001}), (inverse_t, {"t": -1}), (constant, {"beta": 0.1, "t": 2.5})],
    ids=["harmonic-1001", "inverse_t-1", "constant2.5"],
)
def test_step_count_is_not_a_constructor_setting(make, settings):
    # t counts the steps taken; given to the constructor, t = -1001 made the
    # next harmonic step divide by zero, t = -1 the next inverse_t step, and
    # t = 2.5 counted 3.5
    with pytest.raises(TypeError, match="unexpected keyword argument 't'"):
        make(**settings)
    schedule = make(**{k: v for k, v in settings.items() if k != "t"})
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
    s = harmonic()
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


# each constructor, built from a beta in (0, 1] that it may ignore, and
# its beta_t as the schedule computed it when a kind, a base_beta and a
# tau could be given
SCHEDULES = {
    "constant": (constant, lambda beta, t: beta),
    "inverse_t": (lambda beta: inverse_t(), lambda beta, t: 1.0 / t),
    "bias_corrected": (
        bias_corrected,
        lambda beta, t: 1.0 if t == 1 else beta / (1.0 - (1.0 - beta) ** t),
    ),
    "harmonic": (lambda beta: harmonic(), lambda beta, t: 0.1 / (1.0 + t / 1000.0)),
}
# sys.maxsize is the most steps a count holds
STEPS = [1, 2, 3, 1000, 10**6, 10**12, sys.maxsize]


@settings(deadline=None, max_examples=200)
@given(kind=st.sampled_from(sorted(SCHEDULES)), beta=st.floats(0.0, 1.0, exclude_min=True))
@example(kind="constant", beta=5e-324)
@example(kind="bias_corrected", beta=2**-53)
def test_emitted_beta_always_in_unit_interval(kind, beta):
    # every accepted setting gives a beta_t in (0, 1] up to t = sys.maxsize,
    # with the bits of the formula above: harmonic is 1.08e-17 there, and
    # inverse_t 1.08e-19
    make, formula = SCHEDULES[kind]
    assume(kind != "bias_corrected" or 1.0 - beta != 1.0)  # its one rejection
    schedule = make(beta)
    for t in STEPS:
        schedule.t = t - 1
        beta_t = schedule.step()
        assert schedule.t == t
        assert 0.0 < beta_t <= 1.0
        assert beta_t.hex() == formula(beta, t).hex(), t
