import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart.network import Mlp
from popart.schedules import bias_corrected, constant, harmonic, inverse_t
from popart.stats import (
    MAX_TARGET,
    ExtremeTracker,
    Normalizer,
    PercentileTracker,
    batch_stats,
    coverage_from_spread,
    spread_from_coverage,
)
from popart.training import OutputLayer

# -- incremental moments ---------------------------------------------------


def test_update_returns_the_new_sigma():
    n = Normalizer(k=2, spread=1.5, schedule=constant(0.3))
    for y in ([1.0, -2.0], [40.0, 3.0], [1e150, 0.0], [-7.0, 1e-9]):
        sigma = n.update(y)
        np.testing.assert_array_equal(sigma, n.sigma)


def test_two_step_constant_beta_recurrence():
    # beta=0.5 on the stream [1, 2], unrolled by hand:
    # after 1: mu=0.5, nu=0.5; after 2: mu=1.25, nu=2.25, var=0.6875
    n = Normalizer(k=1, epsilon=1e-12, schedule=constant(0.5))
    n.update(1.0)
    assert n.mu[0] == pytest.approx(0.5, abs=1e-12)
    assert n.nu[0] == pytest.approx(0.5, abs=1e-12)
    n.update(2.0)
    assert n.mu[0] == pytest.approx(1.25, abs=1e-12)
    assert n.nu[0] == pytest.approx(2.25, abs=1e-12)
    assert n.sigma[0] ** 2 == pytest.approx(0.6875, abs=1e-10)
    # frozen: 0.75 / sqrt(0.6875)
    assert n.normalize(2.0)[0] == pytest.approx(0.9045340337332909, abs=1e-9)


def test_first_sample_dominates_with_bias_correction():
    n = Normalizer(k=1, schedule=bias_corrected(0.1))
    n.update(7.0)
    assert n.mu[0] == 7.0
    assert n.nu[0] == pytest.approx(49.0 + n.epsilon)  # variance clamped to floor
    assert n.sigma[0] == pytest.approx(math.sqrt(n.epsilon))


def test_inverse_t_matches_batch_moments():
    rng = np.random.default_rng(3)
    ys = rng.normal(5.0, 2.0, size=500)
    n = Normalizer(k=1, epsilon=1e-300, schedule=inverse_t())
    for y in ys:
        n.update(y)
    assert n.mu[0] == pytest.approx(ys.mean(), rel=1e-12)
    assert n.nu[0] == pytest.approx((ys**2).mean(), rel=1e-12)


def test_variance_floor_after_every_update():
    n = Normalizer(k=1, epsilon=1e-4, schedule=constant(0.3))
    for _ in range(100):
        n.update(4.0)  # degenerate stream, variance would be 0
        assert n.var[0] >= 1e-4
        assert n.sigma[0] ** 2 >= 1e-4 * (1.0 - 1e-12)


def test_spread_divides_sigma():
    a = Normalizer(k=1, spread=1.0, schedule=constant(0.5))
    b = Normalizer(k=1, spread=2.0, schedule=constant(0.5))
    for y in (1.0, 5.0, -3.0):
        a.update(y)
        b.update(y)
    assert b.sigma[0] == pytest.approx(a.sigma[0] / 2.0)


def test_multicomponent_updates_are_independent():
    n = Normalizer(k=3, schedule=constant(0.5))
    n.update([1.0, 10.0, 100.0])
    n.update([2.0, 20.0, 200.0])
    for i, scale in enumerate((1.0, 10.0, 100.0)):
        assert n.mu[i] == pytest.approx(1.25 * scale)


def test_non_finite_target_rejected():
    n = Normalizer(k=1)
    with pytest.raises(ValueError):
        n.update(math.nan)
    with pytest.raises(ValueError):
        n.update(math.inf)


UNSQUARABLE = [
    (k, y)
    for k in (1, 3, 1000)
    for y in (1e160, -1e160, 2 * MAX_TARGET, math.nan, math.inf, -math.inf)
]


# the k = 1 cases keep the ids they had before k was a parameter
@pytest.mark.parametrize(
    "k, y", UNSQUARABLE, ids=[f"{y}" if k == 1 else f"{y}-{k}" for k, y in UNSQUARABLE]
)
def test_target_too_large_to_square_rejected_without_change(k, y):
    # beta 0.5, then 1e160, then 2.0 used to leave nu inf and sigma NaN;
    # at k = 1000 one bad component among good ones is rejected by one
    # whole-array test, whose error names it and not all k
    n = Normalizer(k=k, schedule=constant(0.5))
    n.update(np.full(k, 3.0))
    t, mu, var = n.schedule.t, n.mu.copy(), n.var.copy()
    target = np.full(k, 2.0)
    target[k // 2] = y
    for method in (n.update, n.normalize):
        with pytest.raises(ValueError, match="1.34078e") as err:
            method(y if k == 1 else target)  # at k = 1 a lone float, the steps' form
        assert len(str(err.value)) < 100
    assert n.schedule.t == t
    np.testing.assert_array_equal(n.mu, mu)
    np.testing.assert_array_equal(n.var, var)
    n.update(np.full(k, 2.0))
    assert np.isfinite(n.sigma).all()


def test_largest_target_keeps_statistics_finite():
    n = Normalizer(k=2, schedule=constant(0.5))
    for y in ([MAX_TARGET, -MAX_TARGET], [2.0, 2.0], [-MAX_TARGET, 1.0]):
        n.update(y)
        assert np.isfinite(n.nu).all() and np.isfinite(n.mu).all()
        assert np.isfinite(n.sigma).all() and (n.sigma > 0).all()
        assert np.isfinite(n.normalize(y)).all()


def test_a_mean_rounded_past_the_largest_target_is_held_at_it():
    # -x + (MAX_TARGET + x) rounds one ulp past MAX_TARGET: mu**2 overflowed
    # nu to inf, sigma was NaN, and the step that read it raised after the
    # statistics had moved
    for k in (1, 2):
        n = Normalizer(k=k, schedule=constant(1.0))
        n.update([-3.062934649722477e142] * k)
        sigma = n.update([MAX_TARGET] * k)
        assert (n.mu == MAX_TARGET).all() and np.isfinite(n.nu).all()
        assert np.isfinite(sigma).all() and (sigma > 0).all()


# every library constructor's settings, each built with one value in place
REAL_SETTINGS = {
    "spread": lambda v: Normalizer(k=1, spread=v),
    "epsilon": lambda v: Normalizer(k=1, epsilon=v),
    "base_beta": constant,
    "p": PercentileTracker,
}
COUNT_SETTINGS = {
    "k": lambda v: Normalizer(k=v),
    "batch_size": ExtremeTracker,
    "layer_sizes": lambda v: Mlp([3, v]),
    "OutputLayer.k": lambda v: OutputLayer(v, 3),
    "OutputLayer.m": lambda v: OutputLayer(1, v),
}
BAD_SETTINGS = [
    (name, value)
    for group, extra in [(REAL_SETTINGS, (0.0, -1.0)), (COUNT_SETTINGS, (2.5, 0))]
    for name in group
    for value in (math.nan, math.inf, -math.inf, True, *extra)
]


@pytest.mark.parametrize(
    "name, value", BAD_SETTINGS, ids=[f"{value}-{name}" for name, value in BAD_SETTINGS]
)
def test_bad_setting_rejected_by_name(name, value):
    # a NaN or infinite spread or epsilon used to pass the "<= 0" checks
    # and fail only in a later step, after the statistics had moved; a bool
    # was taken as a number or a count, and a float count was truncated or
    # failed in numpy without a name
    build = {**REAL_SETTINGS, **COUNT_SETTINGS}[name]
    with pytest.raises(ValueError, match=f"invalid {name.split('.')[-1]}: "):
        build(value)


def test_shape_mismatch_rejected():
    n = Normalizer(k=2)
    with pytest.raises(ValueError):
        n.update([1.0, 2.0, 3.0])


SCHEDULES = {"constant": constant, "bias_corrected": bias_corrected, "inverse_t": inverse_t}
REJECTED_TARGETS = [math.nan, math.inf, -math.inf, MAX_TARGET * (1 + 2**-50), -1e155]


def _state_bits(n, column):
    return n.schedule.t, n.mu[column].tobytes(), n.var[column].tobytes()


@settings(deadline=None, max_examples=200)
@given(
    ys=st.lists(
        st.one_of(st.floats(-MAX_TARGET, MAX_TARGET), st.sampled_from(REJECTED_TARGETS)),
        min_size=1,
        max_size=30,
    ),
    kind=st.sampled_from(sorted(SCHEDULES)),
    beta=st.floats(1e-4, 1.0),
    spread=st.floats(1e-3, 1e3),
    epsilon=st.floats(1e-300, 1e3),
)
def test_one_component_update_matches_the_array_update(ys, kind, beta, spread, epsilon):
    # k = 1 runs on Python floats, k > 1 on arrays; each column of a k = 2
    # normalizer fed the target twice must match the k = 1 one bit for bit
    def make(k):
        schedule = SCHEDULES[kind]() if kind == "inverse_t" else SCHEDULES[kind](beta)
        return Normalizer(k=k, spread=spread, epsilon=epsilon, schedule=schedule)

    one, two = make(1), make(2)
    mu, var = one.mu, one.var
    for y in ys:
        if not abs(y) <= MAX_TARGET:
            before = _state_bits(one, 0), _state_bits(two, 0), _state_bits(two, 1)
            with pytest.raises(ValueError):
                one.update(y)
            with pytest.raises(ValueError):
                two.update([y, y])
            assert (_state_bits(one, 0), _state_bits(two, 0), _state_bits(two, 1)) == before
            continue
        sigma_one, sigma_two = one.update(y), two.update([y, y])
        assert sigma_one.shape == (1,)
        for column in (0, 1):
            assert _state_bits(one, 0) == _state_bits(two, column)
            assert sigma_one.tobytes() == sigma_two[column].tobytes()
            assert one.sigma.tobytes() == two.sigma[column].tobytes()
        assert sigma_one.tobytes() == one.sigma.tobytes()
    # the statistics are updated in place, in the arrays callers hold
    assert one.mu is mu and one.var is var


@settings(deadline=None, max_examples=200)
@given(
    k=st.sampled_from([1, 3]),
    ys=st.lists(
        st.lists(
            st.one_of(st.floats(-MAX_TARGET, MAX_TARGET), st.sampled_from(REJECTED_TARGETS)),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=20,
    ),
    kind=st.sampled_from([*sorted(SCHEDULES), "harmonic"]),
    beta=st.floats(1e-4, 1.0),
    spread=st.floats(1e-3, 1e3),
    epsilon=st.floats(1e-300, 1e3),
    handed=st.booleans(),
)
def test_next_state_is_what_update_writes_and_moves_nothing(
    k, ys, kind, beta, spread, epsilon, handed
):
    # next_state gives the bytes update then writes and returns, with the
    # schedule's next step size, and moves nothing; it raises exactly
    # where update raises, with the same message, and update then moves
    # nothing either.  Handed to update as its private _state, as a step does, the
    # same bytes are written, with the same schedule step, and update
    # returns None
    if kind in ("constant", "bias_corrected"):
        schedule = SCHEDULES[kind](beta)
    else:
        schedule = {"inverse_t": inverse_t, "harmonic": harmonic}[kind]()
    n = Normalizer(k=k, spread=spread, epsilon=epsilon, schedule=schedule)

    def state():
        return n.schedule.t, n.mu.tobytes(), n.var.tobytes()

    for y in ys:
        target = y[0] if k == 1 else y
        before = state()
        try:
            mu, var, sigma = n.next_state(target)
        except ValueError as exc:
            assert state() == before
            with pytest.raises(ValueError) as again:
                n.update(target)
            assert str(again.value) == str(exc)
            assert state() == before
            continue
        assert state() == before
        # a float each at k = 1, new arrays of k otherwise
        for value in (mu, var, sigma):
            if k == 1:
                assert type(value) is float
            else:
                assert value.shape == (k,) and value is not n.mu and value is not n.var
        returned = n.update(target, _state=(mu, var, sigma)) if handed else n.update(target)
        assert n.schedule.t == before[0] + 1
        assert np.array(mu, ndmin=1).tobytes() == n.mu.tobytes()
        assert np.array(var, ndmin=1).tobytes() == n.var.tobytes()
        assert np.array(sigma, ndmin=1).tobytes() == n.sigma.tobytes()
        if handed:
            assert returned is None
        else:
            assert returned.tobytes() == n.sigma.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    ys=st.lists(st.floats(-MAX_TARGET, MAX_TARGET), min_size=1, max_size=20),
    # beta = 1 gives a zero bound that float residue cannot honor exactly
    beta=st.floats(1e-4, 0.99),
    spread=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_update_then_normalize_bound_property(ys, beta, spread):
    # |normalized just-observed target| <= spread * sqrt((1-beta_t)/beta_t)
    n = Normalizer(k=1, spread=spread, schedule=constant(beta))
    for y in ys:
        n.update(y)
        bound = spread * math.sqrt((1.0 - beta) / beta)
        assert abs(n.normalize(y)[0]) <= bound + 1e-9


# -- batch statistics ------------------------------------------------------


def test_batch_moments_hand_example():
    mu, sigma = batch_stats([1.0, 2.0, 3.0])
    assert mu == pytest.approx(2.0)
    assert sigma == pytest.approx(math.sqrt(2.0 / 3.0))


def test_batch_degenerate_targets_hit_floor():
    # the floor is DEFAULT_EPSILON, 1e-4, a Normalizer's default
    mu, sigma = batch_stats([4.0, 4.0, 4.0])
    assert mu == 4.0
    assert sigma == pytest.approx(1e-2)


def test_batch_scale_does_not_cancel_when_the_spread_is_small_next_to_the_targets():
    # mean-of-squares - mean**2 cancelled to 0 here, and the floor gave a
    # scale of 0.01 for two targets 2**17 apart
    mu, sigma = batch_stats([1e20, 1e20 + 2**17])
    assert mu == 1e20 + 2**16
    assert sigma == 2**16


def test_batch_stats_errors():
    with pytest.raises(ValueError):
        batch_stats([1.0])
    with pytest.raises(ValueError):
        batch_stats([1.0, math.nan])


@pytest.mark.parametrize("spread", [-1.0, 0.0, math.nan, True])
def test_batch_stats_rejects_a_spread_a_normalizer_rejects(spread):
    # these gave the scale -0.5, ZeroDivisionError, NaN and 0.5
    with pytest.raises(ValueError, match=f"^invalid spread: {re.escape(repr(spread))}$"):
        batch_stats([1.0, 2.0], spread=spread)


def test_batch_stats_names_a_scale_a_small_spread_takes_past_the_largest_double():
    # the spread 1e-320 gave the scale inf
    message = r"^scale inf at spread 1e-320 past the largest double, 1\.79769e\+308$"
    with pytest.raises(ValueError, match=message):
        batch_stats([1.0, 2.0], spread=1e-320)
    # the smallest spread whose scale 0.5 / spread is finite is taken
    spread = math.nextafter(0.5 / sys.float_info.max, math.inf)
    assert batch_stats([1.0, 2.0], spread=spread)[1] <= sys.float_info.max


@pytest.mark.parametrize(
    "targets",
    [
        [1e200, -1e200],
        [1e308, 1e308],
        # within MAX_TARGET, yet their deviations square past the largest double
        [1.3e154, -1.3e154, -1.3e154],
        # partial sums overflow both ways: the mean is NaN
        [1e308, 1e308, -1e308, -1e308, 0.0, 0.0, 0.0, 0.0],
    ],
)
def test_batch_stats_past_the_largest_double_raises_naming_it(targets):
    # these gave an infinite scale or mean, or NaN, with a numpy warning;
    # the suite turns any warning into an error
    message = r"or variance .* past the largest double, 1\.79769e\+308$"
    with pytest.raises(ValueError, match=message):
        batch_stats(targets)


# -- percentile tracker ----------------------------------------------------


def test_percentile_tracker_seeds_from_first_sample():
    tr = PercentileTracker(p=0.8)
    assert not tr.initialized
    tr.update(3.0)
    assert tr.initialized
    assert tr.y_min == tr.y_max == 3.0


def test_percentile_tracker_no_move_inside_band_when_p_is_one():
    tr = PercentileTracker(p=1.0)
    tr.schedule = constant(0.5)
    tr.update(5.0)
    tr.update(4.0)  # y <= y_max, tail fraction 0: no movement of y_max
    assert tr.y_max == 5.0


def test_percentile_tracker_step_magnitude():
    # p=0, beta=0.5, y above the band: y_max += 0.5 * (1 - 0.5) = 0.25
    tr = PercentileTracker(p=1e-12)
    tr.schedule = constant(0.5)
    tr.update(0.0)
    tr.update(1.0)
    assert tr.y_max == pytest.approx(0.25, abs=1e-9)


def test_percentile_tracker_uniform_fixed_point():
    # Uniform[0,1], p=0.8: fixed point y_max=0.9, y_min=0.1
    rng = np.random.default_rng(11)
    tr = PercentileTracker(p=0.8)
    for y in rng.random(200_000):
        tr.update(y)
    assert tr.y_max == pytest.approx(0.9, abs=0.02)
    assert tr.y_min == pytest.approx(0.1, abs=0.02)


# -- minibatch extreme tracker --------------------------------------------


def test_extreme_tracker_constant_batches_are_fixed_point():
    tr = ExtremeTracker(batch_size=3)
    tr.schedule = constant(0.5)
    for _ in range(10):
        tr.update([2.0, 2.0, 2.0])
    assert tr.y_min == 2.0 and tr.y_max == 2.0


def test_extreme_tracker_batch_size_enforced():
    tr = ExtremeTracker(batch_size=4)
    with pytest.raises(ValueError):
        tr.update([1.0, 2.0])
    with pytest.raises(ValueError):
        ExtremeTracker(batch_size=1)


def test_extreme_tracker_uniform_pairs_limit():
    # B=2 on Uniform[0,1]: y_max converges to E[max of 2] = 2/3
    rng = np.random.default_rng(5)
    tr = ExtremeTracker(batch_size=2)
    for _ in range(100_000):
        tr.update(rng.random(2))
    assert tr.y_max == pytest.approx(2.0 / 3.0, abs=0.02)
    assert tr.y_min == pytest.approx(1.0 / 3.0, abs=0.02)


# -- erf correspondence ----------------------------------------------------


def test_erf_reference_values():
    # erf(x), frozen from standard tables, is the coverage of the spread
    # 1/(sqrt(2) x), and that spread is the one the coverage gives back
    for x, erf_x in ((1e-3, 0.0011283787909692363), (1.0, 0.8427007929), (2.0, 0.9953222650)):
        s = 1.0 / (math.sqrt(2.0) * x)
        assert coverage_from_spread(s) == pytest.approx(erf_x, abs=2e-10)
        assert spread_from_coverage(erf_x) == pytest.approx(s, rel=1e-8)


def test_spread_coverage_reference_values():
    assert coverage_from_spread(1.0) == pytest.approx(0.683, abs=0.001)
    assert spread_from_coverage(0.95) == pytest.approx(0.5, abs=0.02)
    assert spread_from_coverage(0.99) == pytest.approx(0.4, abs=0.02)


@settings(deadline=None, max_examples=50)
@given(p=st.floats(0.01, 0.99))
def test_spread_coverage_round_trip(p):
    assert coverage_from_spread(spread_from_coverage(p)) == pytest.approx(p, abs=1e-6)


@pytest.mark.parametrize("p", [1e-300, 1e-17, 1e-9, 1e-8, 1e-5, 0.5, 1 - 2**-52, 1 - 2**-53])
def test_spread_coverage_round_trip_at_the_edges(p):
    # (1 + p) / 2 rounds to 1 at p = 1 - 2**-53, the largest double below 1
    s = spread_from_coverage(p)
    assert 0.0 < s < math.inf
    assert coverage_from_spread(s) == pytest.approx(p, rel=1e-6)


def test_spread_coverage_domain_errors():
    # coverage_from_spread(nan) used to return NaN
    for bad in (0.0, 1.0, -0.5, math.nan, True):
        with pytest.raises(ValueError, match="invalid p"):
            spread_from_coverage(bad)
    for bad in (0.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="invalid s"):
            coverage_from_spread(bad)


# -- minibatch extremes: one reading of the batch ----------------------------


def test_extreme_tracker_bounds_equal_numpy_min_max_bitwise():
    rng = np.random.default_rng(8)
    for size in (2, 3, 4, 9, 17):
        ours = ExtremeTracker(size)
        # the tracker's step sizes, from a twin of its schedule
        twin = harmonic()
        y_min = y_max = None
        for batch in rng.normal(size=(200, size)) * 10.0 ** rng.uniform(-300, 300, size=(200, 1)):
            ours.update(batch)
            lo, hi = float(batch.min()), float(batch.max())
            if y_min is None:
                y_min, y_max = lo, hi
            else:
                beta = twin.step()
                y_min += beta * (lo - y_min)
                y_max += beta * (hi - y_max)
            assert (ours.y_min, ours.y_max) == (y_min, y_max)


@pytest.mark.parametrize(
    ("batch", "y_min", "y_max"),
    [
        ([0.0, -0.0, 1.0], -0.0, 1.0),
        ([-0.0, 0.0, 1.0], -0.0, 1.0),
        ([1.0, 0.0, -0.0], -0.0, 1.0),
        ([-1.0, 0.0, -0.0], -1.0, 0.0),
        ([-0.0, -1.0, 0.0], -1.0, 0.0),
        ([-0.0, -0.0, -1.0], -1.0, -0.0),
        ([0.0, 0.0, 1.0], 0.0, 1.0),
    ],
)
def test_extreme_tracker_orders_signed_zeros_as_ieee_minimum_and_maximum(batch, y_min, y_max):
    # of 0.0 and -0.0 the min is -0.0 and the max 0.0, wherever they sit;
    # repr tells the two zeros apart
    tracker = ExtremeTracker(3)
    tracker.update(batch)
    assert (repr(tracker.y_min), repr(tracker.y_max)) == (repr(y_min), repr(y_max))
