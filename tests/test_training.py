import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popart.network import Mlp
from popart.schedules import bias_corrected, constant, harmonic, inverse_t
from popart.stats import MAX_TARGET, Normalizer
from popart.training import (
    OutputLayer,
    art_only_sgd_step,
    normalized_sgd_step,
    plain_sgd_step,
    popart_sgd_step,
    popart_sgd_update,
    predict,
)


class IdentityNet:
    """Parameterless feature map h(x) = x, for hand-checkable unrolls."""

    def __init__(self, n):
        self.layer_sizes = [n, n]

    def forward_pass(self, x):
        arr = np.asarray(x, dtype=float)
        return [arr, arr]

    def backward(self, acts, v):  # no params: an empty gradient
        return np.zeros(0)

    def apply_param_step(self, direction, alpha):
        pass


# -- rescaling -------------------------------------------------------------


def test_identity_rescale_is_a_no_op():
    layer = OutputLayer(2, 3, rng=0)
    w, b = layer.W.copy(), layer.b.copy()
    layer.rescale_to(layer.sigma, layer.mu)
    np.testing.assert_array_equal(layer.W, w)
    np.testing.assert_array_equal(layer.b, b)


def test_scalar_rescale_hand_example():
    # sigma 1 -> 2, mu 0 -> 3 with W=[[1]], b=[1]
    layer = OutputLayer(1, 1, rng=0)
    layer.W[...], layer.b[...] = 1.0, 1.0
    probe = np.random.default_rng(0).normal(size=(20, 1))
    before = [layer.unnormalized_output(h) for h in probe]
    layer.rescale_to([2.0], [3.0])
    assert layer.W[0, 0] == pytest.approx(0.5)
    assert layer.b[0] == pytest.approx(-1.0)
    for h, f in zip(probe, before):
        np.testing.assert_allclose(layer.unnormalized_output(h), f, rtol=1e-12)
        np.testing.assert_allclose(f, h + 1.0)  # f(x) = h + 1 throughout


def test_rescale_general_formula():
    rng = np.random.default_rng(4)
    layer = OutputLayer(3, 5, rng=rng)
    layer.rescale_to(rng.uniform(0.5, 2.0, 3), rng.normal(size=3))
    sigma, mu = layer.sigma.copy(), layer.mu.copy()
    w, b = layer.W.copy(), layer.b.copy()
    sigma_new = rng.uniform(0.5, 2.0, 3)
    mu_new = rng.normal(size=3)
    layer.rescale_to(sigma_new, mu_new)
    np.testing.assert_allclose(layer.W, (sigma / sigma_new)[:, None] * w, rtol=1e-12)
    np.testing.assert_allclose(layer.b, (sigma * b + mu - mu_new) / sigma_new, rtol=1e-12)


def test_rescale_rejects_nonpositive_scale():
    layer = OutputLayer(1, 2, rng=0)
    with pytest.raises(ValueError):
        layer.rescale_to([0.0], [0.0])
    with pytest.raises(ValueError):
        layer.rescale_to([-1.0], [0.0])


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 10**6))
def test_rescale_preserves_outputs_property(seed):
    rng = np.random.default_rng(seed)
    layer = OutputLayer(2, 4, rng=rng)
    layer.rescale_to(rng.uniform(0.1, 10.0, 2), rng.normal(scale=100.0, size=2))
    hs = rng.normal(size=(5, 4))
    before = [layer.unnormalized_output(h) for h in hs]
    layer.rescale_to(rng.uniform(0.1, 10.0, 2), rng.normal(scale=100.0, size=2))
    for h, f in zip(hs, before):
        drift = np.abs(layer.unnormalized_output(h) - f)
        assert np.all(drift <= 1e-10 * (1.0 + np.abs(f)))


# -- popart step: hand unroll ----------------------------------------------


def _nan_blind(value):
    """Bytes of an array with every NaN made the same NaN: a stacked output
    and its rows, one through numpy's elementwise loops and one through
    Python floats, may differ in a NaN's sign and in nothing else."""
    a = np.array(value, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _special(rng, shape):
    """Normal draws of ``shape`` with +-0, subnormals, +-inf, NaN and +-1e308
    mixed in."""
    a = rng.normal(size=shape)
    special = rng.random(shape) < 0.4
    a[special] = rng.choice(
        [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308, -1e308],
        size=int(special.sum()),
    )
    return a


@pytest.mark.parametrize("k", [1, 3])
def test_stacked_predict_equals_per_row_calls_bitwise(k):
    rng = np.random.default_rng(k)
    net = Mlp([5, 8, 6], rng=k)
    layer = OutputLayer(k, 6, rng=rng)
    layer.rescale_to(rng.uniform(0.5, 2e3, k), rng.normal(size=k) * 100.0)
    for n_rows in range(1, 9):
        xs = rng.normal(size=(n_rows, 5))
        expected = np.array([predict(net, layer, x) for x in xs])
        got = predict(net, layer, xs)
        assert got.shape == (n_rows, k) and got.tobytes() == expected.tobytes()
        h = net.forward_pass(xs)[-1]
        out = layer.unnormalized_output
        assert out(h).tobytes() == np.array([out(row) for row in h]).tobytes()
    # parameters, features and inputs with special values mixed in, also
    # through layers 1 wide
    for sizes in ([5, 8, 6], [4, 1], [1, 3, 1]) * 50:
        net = Mlp(sizes, rng=k)
        net.set_params(_special(rng, net.n_params))
        layer = OutputLayer(k, sizes[-1], rng=k)
        layer.W[...], layer.b[...] = _special(rng, (k, sizes[-1])), _special(rng, k)
        xs, h = _special(rng, (4, sizes[0])), _special(rng, (4, sizes[-1]))
        with np.errstate(all="ignore"):
            layer.rescale_to(rng.uniform(0.5, 2e3, k), rng.normal(size=k) * 100.0)
            got, rows = predict(net, layer, xs), [predict(net, layer, x) for x in xs]
            assert _nan_blind(got) == _nan_blind(rows)
            out = layer.unnormalized_output
            assert _nan_blind(out(h)) == _nan_blind([out(row) for row in h])


def _calibrated_pairs(n, k, sizes=(5, 8, 6)):
    """``n`` networks and output layers of one shape, each with its own
    parameters, statistics and calibration."""
    pairs = []
    for seed in range(n):
        rng = np.random.default_rng(seed)
        net = Mlp(list(sizes), rng=seed)
        nrm = Normalizer(k=k, schedule=constant(0.3))
        layer = OutputLayer(k, sizes[-1], normalizer=nrm, rng=rng)
        layer.rescale_to(rng.uniform(0.5, 2e3, k), rng.normal(size=k) * 100.0)
        acts = net.forward_pass(rng.normal(size=sizes[0]))
        popart_sgd_step(net, layer, acts, rng.normal(size=k) * 50.0, 0.1)
        pairs.append((net, layer))
    return pairs


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("k", [1, 3])
def test_layer_stack_outputs_rows_equal_members_bitwise(n, k):
    pairs = _calibrated_pairs(n, k)
    nets, layers = zip(*pairs)
    net_stack, layer_stack = Mlp.stack(nets), OutputLayer.stack(layers)
    rng = np.random.default_rng(9)
    x = rng.normal(size=5)
    got = layer_stack.unnormalized_output(net_stack.forward_pass(x)[-1])
    assert got.shape == (n, k)
    for r, (net, layer) in enumerate(pairs):
        assert _bits(got[r]) == _bits(predict(net, layer, x))


def test_step_on_a_member_moves_its_rows_only():
    pairs = _calibrated_pairs(3, 2)
    twin_net, twin_layer = pairs[1][0].copy(), copy.deepcopy(pairs[1][1])
    nets, layers = zip(*pairs)
    net_stack, layer_stack = Mlp.stack(nets), OutputLayer.stack(layers)
    names = ("W", "b", "sigma", "mu")
    before = [net_stack.get_params(), *(getattr(layer_stack, a).copy() for a in names)]
    x, y = np.linspace(-1.0, 1.0, 5), np.array([40.0, -7.0])
    acts = net_stack.forward_pass(x)
    own = popart_sgd_step(nets[1], layers[1], [x, *(a[1] for a in acts[1:])], y, 0.05)
    twin = popart_sgd_step(twin_net, twin_layer, twin_net.forward_pass(x), y, 0.05)
    assert _bits(own.normalized_error) == _bits(twin.normalized_error)
    after = [net_stack.get_params(), *(getattr(layer_stack, a) for a in names)]
    for old, new in zip(before, after):
        assert old[[0, 2]].tobytes() == new[[0, 2]].tobytes()
        assert old[1].tobytes() != new[1].tobytes()
    assert after[0][1].tobytes() == twin_net.get_params().tobytes()
    for name, new in zip(names, after[1:]):
        assert new[1].tobytes() == getattr(twin_layer, name).tobytes(), name


def test_layer_stack_gives_outputs_only():
    layers = [layer for _, layer in _calibrated_pairs(2, 1)]
    stack = OutputLayer.stack(layers)
    before = [getattr(stack, a).copy() for a in ("W", "b", "sigma", "mu")]
    with pytest.raises(TypeError, match="unnormalized outputs only"):
        stack.rescale_to([2.0], [1.0])
    for old, name in zip(before, ("W", "b", "sigma", "mu")):
        assert old.tobytes() == getattr(stack, name).tobytes()
    with pytest.raises(ValueError, match="same k and m"):
        OutputLayer.stack([OutputLayer(1, 3, rng=0), OutputLayer(2, 3, rng=0)])


@pytest.mark.parametrize("shape", [(2, 6), (1, 6), (4, 6), (3, 5), (5,), (6,)])
def test_layer_stack_rejects_features_of_another_shape(shape):
    # numpy's broadcast error named neither shape, and one row was
    # broadcast to every member; one feature row per member is the only form
    stack = OutputLayer.stack(layer for _, layer in _calibrated_pairs(3, 2))
    with pytest.raises(ValueError, match=rf"\(3, 6\), .* got shape {re.escape(str(shape))}"):
        stack.unnormalized_output(np.ones(shape))


def test_popart_step_hand_unroll():
    # identity features, W=1, b=0, fresh stats, beta=0.5, alpha=0.1,
    # x=5, y=10; every intermediate value unrolled by hand
    net = IdentityNet(1)
    nrm = Normalizer(k=1, epsilon=1e-12, schedule=constant(0.5))
    layer = OutputLayer(1, 1, normalizer=nrm, rng=0)
    layer.W[...] = 1.0
    report = popart_sgd_step(net, layer, net.forward_pass([5.0]), 10.0, alpha=0.1)
    assert nrm.mu[0] == pytest.approx(5.0)
    assert nrm.nu[0] == pytest.approx(50.0, abs=1e-9)
    assert layer.sigma[0] == pytest.approx(5.0, abs=1e-9)
    # rescale: W = 1/5, b = (0 + 0 - 5)/5 = -1; then delta = (1 - 1) - 1 = -1
    assert report.normalized_error[0] == pytest.approx(-1.0, abs=1e-9)
    assert layer.W[0, 0] == pytest.approx(0.2 + 0.1 * 1.0 * 5.0, abs=1e-9)  # 0.7
    assert layer.b[0] == pytest.approx(-1.0 + 0.1, abs=1e-9)  # -0.9
    assert report.squared_loss == pytest.approx(0.5, abs=1e-9)


def test_a_step_size_of_one_bounds_the_target_but_not_the_normalized_error():
    # the README's example: at beta 1, mu takes the target and the scale
    # its floor, so the normalized target is 0 while the preserved
    # prediction, about 0, lies 1e105 scales below it
    nrm = Normalizer(k=1, schedule=constant(1.0))
    layer = OutputLayer(1, 3, normalizer=nrm, rng=0)
    net = Mlp([2, 3], rng=0)
    x = np.array([0.3, -0.4])
    report = popart_sgd_step(net, layer, net.forward_pass(x), 1e103, alpha=1e-3)
    assert nrm.normalize(1e103)[0] == 0.0 and layer.sigma[0] == 0.01
    assert report.normalized_error[0] == pytest.approx(-1e105)
    assert predict(net, layer, x)[0] == pytest.approx(7.77e202, rel=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        popart_sgd_step(net, layer, net.forward_pass(x), 0.0, alpha=1e-3)
    assert not np.isfinite(layer.W).all()


def _straight_line_popart_step(W, b, sigma, mu, mu_new, sigma_new, h, y, alpha):
    """Independent scalar unroll of one output-preserving SGD step."""
    w2 = (sigma / sigma_new) * W
    b2 = (sigma * b + mu - mu_new) / sigma_new
    delta = (w2 * h + b2) - (y - mu_new) / sigma_new
    w3 = w2 - alpha * delta * h
    b3 = b2 - alpha * delta
    return w3, b3, delta


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6))
def test_popart_step_matches_straight_line_oracle(seed):
    rng = np.random.default_rng(seed)
    W0 = rng.normal()
    b0 = rng.normal()
    h = rng.normal()
    y = rng.normal(scale=10.0)
    alpha = rng.uniform(0.01, 0.3)
    sigma_new = rng.uniform(0.5, 3.0)
    mu_new = rng.normal()

    net = IdentityNet(1)
    layer = OutputLayer(1, 1, rng=0)
    layer.W[...], layer.b[...] = W0, b0
    report = popart_sgd_update(
        net, layer, net.forward_pass([h]), y, [sigma_new], [mu_new], alpha
    )
    w_exp, b_exp, d_exp = _straight_line_popart_step(
        W0, b0, 1.0, 0.0, mu_new, sigma_new, h, y, alpha
    )
    assert layer.W[0, 0] == pytest.approx(w_exp, rel=1e-12, abs=1e-12)
    assert layer.b[0] == pytest.approx(b_exp, rel=1e-12, abs=1e-12)
    assert report.normalized_error[0] == pytest.approx(d_exp, rel=1e-12, abs=1e-12)


def test_zero_error_fixed_point():
    # converged stats and y equal to the current unnormalized output:
    # delta = 0, nothing moves
    net = Mlp([2, 3], rng=0)
    nrm = Normalizer(k=1, schedule=constant(1e-12))
    nrm.update(0.0)
    nrm.mu[0], nrm.var[0] = 5.0, 4.0  # sigma = 2
    layer = OutputLayer(1, 3, normalizer=nrm, rng=1)
    layer.rescale_to(nrm.sigma, nrm.mu)
    x = np.array([0.3, -0.7])
    y = predict(net, layer, x)[0]
    theta = net.get_params()
    w = layer.W.copy()
    report = popart_sgd_step(net, layer, net.forward_pass(x), y, alpha=0.1)
    assert abs(report.normalized_error[0]) < 1e-9
    np.testing.assert_allclose(net.get_params(), theta, atol=1e-9)
    np.testing.assert_allclose(layer.W, w, atol=1e-9)


def test_double_update_order_via_hook():
    # the normalized error must use post-rescale W, b and post-update stats
    net = Mlp([2, 3], rng=2)
    nrm = Normalizer(k=1, schedule=constant(0.3))
    layer = OutputLayer(1, 3, normalizer=nrm, rng=3)
    x = np.array([0.5, -1.0])
    h = net.forward_pass(x)[-1]  # features before the step mutates theta
    before = copy.deepcopy(layer)
    report = popart_sgd_step(net, layer, net.forward_pass(x), 7.0, alpha=0.05)
    before.rescale_to(report.scale, report.shift)
    expected = (before.W @ h + before.b) - (7.0 - report.shift) / report.scale
    np.testing.assert_allclose(report.normalized_error, expected, rtol=1e-12)
    np.testing.assert_array_equal(report.scale, nrm.sigma)
    np.testing.assert_array_equal(report.shift, nrm.mu)


def test_normalized_error_respects_target_bound():
    beta = 0.01
    net = Mlp([2, 4], rng=0)
    nrm = Normalizer(k=1, schedule=constant(beta))
    layer = OutputLayer(1, 4, normalizer=nrm, rng=1)
    rng = np.random.default_rng(8)
    bound = math.sqrt((1.0 - beta) / beta)
    for i in range(500):
        y = 1e9 if i % 100 == 99 else rng.normal()
        popart_sgd_step(net, layer, net.forward_pass(rng.normal(size=2)), y, alpha=1e-3)
        # target-side component of delta obeys the update-then-normalize bound
        assert abs((y - nrm.mu[0]) / nrm.sigma[0]) <= bound + 1e-9


# -- art / plain variants --------------------------------------------------


def test_art_without_change_matches_popart():
    # if the stats do not move, rescale is the identity and both agree
    def build():
        net = Mlp([2, 3], rng=4)
        nrm = Normalizer(k=1, schedule=constant(1e-15))
        nrm.update(3.0)
        nrm.mu[0], nrm.var[0] = 2.0, 4.0  # sigma = 2
        layer = OutputLayer(1, 3, normalizer=nrm, rng=5)
        layer.rescale_to(nrm.sigma, nrm.mu)
        return net, layer

    x = np.array([0.2, 0.9])
    net_a, layer_a = build()
    net_b, layer_b = build()
    popart_sgd_step(net_a, layer_a, net_a.forward_pass(x), 4.0, alpha=0.1)
    art_only_sgd_step(net_b, layer_b, net_b.forward_pass(x), 4.0, alpha=0.1)
    np.testing.assert_allclose(net_a.get_params(), net_b.get_params(), rtol=1e-10)
    np.testing.assert_allclose(layer_a.W, layer_b.W, rtol=1e-10)
    np.testing.assert_allclose(layer_a.b, layer_b.b, rtol=1e-10)


def test_spike_drifts_art_but_not_popart():
    # alpha=0 isolates the effect of adopting new statistics: popart
    # compensates W, b and outputs stand still; art does not and they move
    def build():
        net = Mlp([2, 3], rng=6)
        nrm = Normalizer(k=1, schedule=constant(0.5))
        nrm.update(1.0)
        layer = OutputLayer(1, 3, normalizer=nrm, rng=7)
        return net, layer

    x = np.array([0.4, -0.6])
    probe = np.array([-1.0, 2.0])

    net, layer = build()
    before = predict(net, layer, probe)[0]
    popart_sgd_step(net, layer, net.forward_pass(x), 1e6, alpha=0.0)
    assert predict(net, layer, probe)[0] == pytest.approx(before, rel=1e-10)

    net, layer = build()
    before = predict(net, layer, probe)[0]
    art_only_sgd_step(net, layer, net.forward_pass(x), 1e6, alpha=0.0)
    assert abs(predict(net, layer, probe)[0] - before) > 1.0


def test_plain_sgd_equals_normalized_sgd_with_unit_scale():
    def build():
        net = Mlp([2, 3], rng=8)
        layer = OutputLayer(1, 3, rng=9)
        return net, layer

    x = np.array([1.0, -0.5])
    net_a, layer_a = build()
    net_b, layer_b = build()
    for y in (3.0, -2.0, 5.0):
        plain_sgd_step(net_a, layer_a, net_a.forward_pass(x), y, alpha=0.05)
        normalized_sgd_step(net_b, layer_b, net_b.forward_pass(x), y, [1.0], alpha=0.05)
    np.testing.assert_allclose(net_a.get_params(), net_b.get_params(), rtol=1e-12)
    np.testing.assert_allclose(layer_a.W, layer_b.W, rtol=1e-12)
    np.testing.assert_allclose(layer_a.b, layer_b.b, rtol=1e-12)


def test_plain_sgd_trivial_cases():
    net = Mlp([2, 3], rng=10)
    layer = OutputLayer(1, 3, rng=11)
    x = np.array([0.1, 0.2])
    y = predict(net, layer, x)[0]
    theta = net.get_params()
    report = plain_sgd_step(net, layer, net.forward_pass(x), y, alpha=0.1)
    assert report.squared_loss == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(net.get_params(), theta, atol=1e-12)

    w = layer.W.copy()
    plain_sgd_step(net, layer, net.forward_pass(x), y + 5.0, alpha=0.0)
    np.testing.assert_array_equal(layer.W, w)


def test_report_invariants():
    net = Mlp([2, 3], rng=12)
    nrm = Normalizer(k=1, schedule=constant(0.2))
    layer = OutputLayer(1, 3, normalizer=nrm, rng=13)
    report = popart_sgd_step(net, layer, net.forward_pass([0.3, 0.4]), 2.0, alpha=0.01)
    assert report.squared_loss >= 0.0
    assert report.gradient_norm >= 0.0
    np.testing.assert_array_equal(report.scale, layer.sigma)
    np.testing.assert_array_equal(report.scale, nrm.sigma)


def test_missing_normalizer_raises():
    net = Mlp([2, 3], rng=0)
    layer = OutputLayer(1, 3, rng=0)
    with pytest.raises(ValueError):
        popart_sgd_step(net, layer, net.forward_pass([0.0, 0.0]), 1.0, alpha=0.1)
    with pytest.raises(ValueError):
        art_only_sgd_step(net, layer, net.forward_pass([0.0, 0.0]), 1.0, alpha=0.1)


def test_normalized_sgd_rejects_bad_scale():
    net = Mlp([2, 3], rng=0)
    layer = OutputLayer(1, 3, rng=0)
    with pytest.raises(ValueError):
        normalized_sgd_step(net, layer, net.forward_pass([0.0, 0.0]), 1.0, [0.0], alpha=0.1)


# -- every input is checked before anything moves ---------------------------

STEPS = {
    "popart": lambda net, layer, acts, y: popart_sgd_step(net, layer, acts, y, 0.1),
    "art": lambda net, layer, acts, y: art_only_sgd_step(net, layer, acts, y, 0.1),
    "sgd": lambda net, layer, acts, y: plain_sgd_step(net, layer, acts, y, 0.1),
    "normalized_sgd": lambda net, layer, acts, y: normalized_sgd_step(
        net, layer, acts, y, [2.0], 0.1
    ),
    "popart_update": lambda net, layer, acts, y: popart_sgd_update(
        net, layer, acts, y, [2.0], [1.0], 0.1
    ),
}
GOOD_X = np.array([0.3, -0.4])


def _good_acts(net):
    return net.forward_pass(GOOD_X)


def _trained():
    net = Mlp([2, 3], rng=14)
    nrm = Normalizer(k=1, schedule=constant(0.3))
    layer = OutputLayer(1, 3, normalizer=nrm, rng=15)
    for y in (2.0, 50.0, -3.0):
        popart_sgd_step(net, layer, _good_acts(net), y, alpha=0.1)
    return net, layer


def _state(net, layer):
    nrm = layer.normalizer
    return {
        "params": net.get_params(),
        "W": layer.W.copy(),
        "b": layer.b.copy(),
        "sigma": layer.sigma.copy(),
        "layer_mu": layer.mu.copy(),
        "t": nrm.schedule.t,
        "mu": nrm.mu.copy(),
        "var": nrm.var.copy(),
    }


def _assert_rejected_without_change(step, y, acts_of=_good_acts):
    """``acts_of(net)`` makes the ``acts`` passed to the step."""
    net, layer = _trained()
    before = _state(net, layer)
    with pytest.raises(ValueError):
        STEPS[step](net, layer, acts_of(net), y)
    after = _state(net, layer)
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=key)


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, [math.nan]])
def test_non_finite_target_rejected_without_change(step, y):
    _assert_rejected_without_change(step, y)


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("y", [[1.0, 2.0], np.ones((1, 1))])
def test_misshapen_target_rejected_without_change(step, y):
    _assert_rejected_without_change(step, y)


@pytest.mark.parametrize("step", sorted(STEPS))
# a stack of inputs, which predict takes, is not one step
@pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), np.zeros((2, 1)), 0.5, np.zeros((1, 2))])
def test_misshapen_input_rejected_without_change(step, x):
    # the input heads the pass, and is checked with its other entries
    _assert_rejected_without_change(step, 1.0, lambda net: [x, *_good_acts(net)[1:]])


def test_bad_scale_rejected_without_change():
    # 1e-200 squared is 0, so the seed went NaN after b had moved, and 1e160
    # squared is inf, so the lower layers stopped learning; only
    # normalized_sgd_step squares its scale
    squared_out_of_range = ([1e-200], [1e160])
    for bad in ([0.0], [-1.0], [math.nan], [math.inf], *squared_out_of_range):
        net, layer = _trained()
        before = _state(net, layer)
        with pytest.raises(ValueError, match=r"sigma .* outside \[1\.49167e-154, 1\.34078e\+154\]"):
            normalized_sgd_step(net, layer, _good_acts(net), 1.0, bad, alpha=0.1)
        if bad not in squared_out_of_range:
            with pytest.raises(ValueError):
                popart_sgd_update(net, layer, _good_acts(net), 1.0, bad, [0.0], alpha=0.1)
        after = _state(net, layer)
        for key, value in before.items():
            np.testing.assert_array_equal(after[key], value, err_msg=key)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bad_shift_rejected_without_change(bad):
    net, layer = _trained()
    before = _state(net, layer)
    with pytest.raises(ValueError):
        popart_sgd_update(net, layer, _good_acts(net), 1.0, [2.0], [bad], alpha=0.1)
    after = _state(net, layer)
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=key)


@pytest.mark.parametrize(
    "sigma, mu",
    [([math.nan], [0.0]), ([math.inf], [0.0]), ([0.0], [0.0]), ([1.0], [math.inf]),
     ([1.0], [math.nan]), ([5e-324], [0.0])],
)
def test_rescale_to_rejects_bad_scale_shift_without_change(sigma, mu):
    # at 5e-324 the ratio 2 / 5e-324 is inf: W went to +-inf and the output to NaN
    layer = OutputLayer(1, 3, rng=0)
    layer.rescale_to([2.0], [1.0])
    before = [layer.W.copy(), layer.b.copy(), layer.sigma.copy(), layer.mu.copy()]
    with pytest.raises(ValueError, match="sigma|mu"):
        layer.rescale_to(sigma, mu)
    after = [layer.W, layer.b, layer.sigma, layer.mu]
    for name, a, b in zip(("W", "b", "sigma", "mu"), after, before):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("step", ["popart", "art"])
@pytest.mark.parametrize("y", [1e160, -1e160, [1e155]])
def test_target_too_large_to_square_rejected_without_change(step, y):
    _assert_rejected_without_change(step, y)


# each constructor, from a setting it takes or ignores
SCHEDULE_MAKERS = {
    "constant": constant,
    "bias_corrected": bias_corrected,
    "inverse_t": lambda beta: inverse_t(),
    "harmonic": lambda beta: harmonic(),
}


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(sorted(SCHEDULE_MAKERS)), beta=st.floats() | st.booleans())
@example(kind="constant", beta=math.nan)
def test_no_step_raises_after_its_statistics_moved(kind, beta):
    # harmonic(0.1, tau=nan) used to be accepted, and the first popart step
    # moved the normalizer to t = 1, with NaN mu and nu, before it raised on
    # sigma; a schedule no step can use fails when it is built
    try:
        schedule = SCHEDULE_MAKERS[kind](beta)
    except ValueError:
        return
    net = Mlp([2, 3], rng=14)
    layer = OutputLayer(1, 3, normalizer=Normalizer(k=1, schedule=schedule), rng=15)
    for y in (2.0, 50.0, -3.0):
        popart_sgd_step(net, layer, _good_acts(net), y, alpha=0.1)
    assert np.isfinite(layer.sigma).all() and np.isfinite(layer.mu).all()


# settings that put the scale outside [TINY, MAX] at a target update()
# takes: each step found it only after update() had moved mu, nu and
# schedule.t, leaving t == 1 behind the ValueError
SCALE_OUT_OF_RANGE = {
    "sigma inf": {"spread": 1e-300, "schedule": constant(0.5)},  # at y = 1e10
    "sigma 0": {"spread": 1e200, "epsilon": 1e-300},  # at y = 0.0
    "nu inf": {"epsilon": 1e308, "schedule": constant(1.0)},  # at y = MAX_TARGET
    # scales a rescale cannot join: the first popart step took W by 1 / 1e-310
    # = inf at y = 0, or a ratio from 1e-160 to 1.34e154 is inf
    "ratio from 1 inf": {"spread": 1e160, "epsilon": 1e-300},
    "ratio within inf": {"epsilon": 1e-320},
}
# the last two, at beta 1, put mu one ulp past MAX_TARGET (see test_stats.py)
EXTREME_TARGETS = [0.0, 1.0, 1e10, -MAX_TARGET, -3.062934649722477e142, MAX_TARGET]


@pytest.mark.parametrize("case", sorted(SCALE_OUT_OF_RANGE))
def test_normalizer_settings_whose_scale_a_target_puts_out_of_range_are_rejected(case):
    with pytest.raises(ValueError, match=r"invalid spread and epsilon: .* outside \[4\.94066e-324, "):
        Normalizer(k=1, **SCALE_OUT_OF_RANGE[case])


@settings(deadline=None, max_examples=200)
@given(
    spread=st.floats(5e-324, 1e308),
    epsilon=st.floats(5e-324, 1e308),
    beta=st.sampled_from([0.5, 1.0, 1e-3]),
    ys=st.lists(st.sampled_from(EXTREME_TARGETS), min_size=1, max_size=3),
    step=st.sampled_from(["popart", "art"]),
)
@example(spread=1e-300, epsilon=1e-4, beta=0.5, ys=[1e10], step="popart")
@example(spread=1e200, epsilon=1e-300, beta=1e-3, ys=[0.0], step="art")
@example(spread=1.0, epsilon=1e308, beta=1.0, ys=[MAX_TARGET], step="popart")
@example(spread=1.0, epsilon=1e-4, beta=1.0, ys=[-3.062934649722477e142, MAX_TARGET], step="art")
# the scale 1e-310 at y = 0, which a rescale from 1 cannot reach
@example(spread=1e160, epsilon=1e-300, beta=0.5, ys=[0.0], step="popart")
# a finite ratio whose new bias overflows: W and b go non-finite, no raise
@example(spread=1.7976931348623157e298, epsilon=1.0, beta=1.0, ys=[1e10], step="popart")
def test_no_step_finds_its_normalizers_scale_out_of_range(spread, epsilon, beta, ys, step):
    # a normalizer that is built gives a scale every step takes, for every
    # target update() takes; one that could not is not built
    try:
        nrm = Normalizer(k=1, spread=spread, epsilon=epsilon, schedule=constant(beta))
    except ValueError as exc:
        assert str(exc).startswith("invalid spread and epsilon: ")
        return
    net = Mlp([2, 3], rng=14)
    layer = OutputLayer(1, 3, normalizer=nrm, rng=15)
    with np.errstate(over="ignore", invalid="ignore"):  # W may overflow: not a raise
        for y in ys:
            STEPS[step](net, layer, _good_acts(net), y)
    assert nrm.schedule.t == len(ys)


@pytest.mark.parametrize(
    ("epsilon", "scale", "y", "next_scale", "ratio"),
    [(1e-4, 1e-300, 1e30, 5e29, 0.0), (1e-300, 1e300, 0.0, 1e-150, math.inf)],
    ids=["tiny", "huge"],
)
def test_popart_step_rejects_a_layer_scale_no_rescale_reaches_without_change(
    epsilon, scale, y, next_scale, ratio
):
    # a layer rescaled by hand to a scale whose ratio to the normalizer's
    # next one is 0 or inf: the step's rescale raises, and since the step
    # computes the next statistics before anything moves, the normalizer
    # has not moved either (a step that updated first left t = 1 and mu =
    # 5e29 in the first case)
    net = Mlp([2, 3], rng=0)
    nrm = Normalizer(k=1, epsilon=epsilon, schedule=constant(0.5))
    layer = OutputLayer(1, 3, normalizer=nrm, rng=1)
    layer.rescale_to([scale], [0.0])
    before = _state(net, layer)
    message = re.escape(
        f"sigma {next_scale!r} at component 0: the rescale from {scale!r} "
        f"would multiply W by {ratio!r}"
    )
    with pytest.raises(ValueError, match=message):
        popart_sgd_step(net, layer, net.forward_pass([0.3, -0.4]), y, 0.1)
    after = _state(net, layer)
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=key)


# at constant(0.5) and the default epsilon, the scale the first update
# gives: 0.5000499975... at the target 1, 0.01 (the floor) at 0 and 5e129
# at 1e130; the largest layer scale whose ratio to the first is finite
_NEXT_SCALE = math.sqrt(1e-4 * 0.5 + 0.5 * 0.5 * 1.0 * 1.0)
_EDGE = 8.989364475941173e307
assert _EDGE / _NEXT_SCALE < math.inf and math.nextafter(_EDGE, math.inf) / _NEXT_SCALE == math.inf


@pytest.mark.parametrize(
    ("scale", "y", "next_scale", "taken"),
    [
        (1e-200, 1.0, _NEXT_SCALE, True),
        (1e-200, 1e130, 5e129, False),  # the ratio 2e-330 rounds to 0
        (3.2e-170, 1.0, _NEXT_SCALE, True),
        (3.4e-170, 1.0, _NEXT_SCALE, True),
        (1.7e306, 0.0, 0.01, True),
        (1.8e306, 1.0, _NEXT_SCALE, True),
        (1.8e306, 0.0, 0.01, False),  # the ratio 1.8e308 rounds to inf
        (_EDGE, 1.0, _NEXT_SCALE, True),
        (math.nextafter(_EDGE, math.inf), 1.0, _NEXT_SCALE, False),
    ],
)
def test_popart_step_checks_the_layer_scale_against_every_scale_not_the_next(
    scale, y, next_scale, taken
):
    # the step checks the layer's scale against the scale this target
    # gives, exactly: one layer scale is taken at one target and rejected
    # at another.  A check against both ends of the normalizer's range,
    # [0.01, sqrt(MAX)], rejected 1e-200, 3.2e-170 and 1.8e306 at any target
    net = Mlp([2, 3], rng=0)
    layer = OutputLayer(1, 3, normalizer=Normalizer(k=1, schedule=constant(0.5)), rng=1)
    with np.errstate(over="ignore", invalid="ignore"):  # W may overflow: not a raise
        # popart_sgd_update takes the scale; only its rescale checks it
        popart_sgd_update(net, layer, _good_acts(net), 0.0, [scale], [0.0], 0.1)
        before = _state(net, layer)
        if taken:
            popart_sgd_step(net, layer, _good_acts(net), y, 0.1)
            assert layer.normalizer.schedule.t == 1
            assert layer.sigma.tobytes() == np.array([next_scale]).tobytes()
            assert layer.sigma.tobytes() == layer.normalizer.sigma.tobytes()
            return
        message = re.escape(f"sigma {next_scale!r} at component 0: the rescale from {scale!r} ")
        with pytest.raises(ValueError, match=message):
            popart_sgd_step(net, layer, _good_acts(net), y, 0.1)
    after = _state(net, layer)
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=key)


# -- acts: the forward pass a step learns from --------------------------------

BAD_ACTS = {
    "one short": lambda net: _good_acts(net)[:-1],
    "one extra": lambda net: _good_acts(net) + [np.zeros(3)],
    # same depth and input, other hidden width
    "other net": lambda net: Mlp([2, 4], rng=0).forward_pass(GOOD_X),
    "stack of one": lambda net: net.forward_pass(GOOD_X[None]),
}


@pytest.mark.parametrize("step", sorted(STEPS))
@pytest.mark.parametrize("acts", sorted(BAD_ACTS))
def test_bad_acts_rejected_without_change(step, acts):
    _assert_rejected_without_change(step, 1.0, BAD_ACTS[acts])


@pytest.mark.parametrize("step", sorted(STEPS))
# arrays, or copies of them as lists: list features used to raise
# AttributeError after the parameters and statistics had moved
@pytest.mark.parametrize("form", [np.asarray, list], ids=["x", "copy of x"])
def test_given_acts_give_identical_step(step, form):
    # a pass put together as the lockstep sweep does, from the input and
    # the rows of a stacked pass, gives the step what its own input's pass
    # gives, to the last bit
    net, layer = _trained()
    expected_report = STEPS[step](net, layer, _good_acts(net), 7.0)
    expected = _state(net, layer)
    net, layer = _trained()
    rows = net.forward_pass(np.stack([GOOD_X, -GOOD_X]))
    acts = [GOOD_X, *(a[0] for a in rows[1:])]
    report = STEPS[step](net, layer, [form(a) for a in acts], 7.0)
    state = _state(net, layer)
    for key, value in expected.items():
        np.testing.assert_array_equal(state[key], value, err_msg=key)
    np.testing.assert_array_equal(report.normalized_error, expected_report.normalized_error)
    assert report.gradient_norm == expected_report.gradient_norm



def test_normalizer_of_another_width_rejected_without_change():
    net = Mlp([2, 3], rng=0)
    nrm = Normalizer(k=1, schedule=constant(0.3))
    layer = OutputLayer(2, 3, normalizer=nrm, rng=1)
    before = [nrm.schedule.t, nrm.mu.copy(), nrm.var.copy(), layer.W.copy(), layer.b.copy()]
    with pytest.raises(ValueError, match="expected 2 target components"):
        popart_sgd_step(net, layer, _good_acts(net), 1.0, alpha=0.1)
    with pytest.raises(ValueError, match="normalizer has 1 components"):
        popart_sgd_step(net, layer, _good_acts(net), [1.0, 2.0], alpha=0.1)
    after = [nrm.schedule.t, nrm.mu, nrm.var, layer.W, layer.b]
    for a, b in zip(after, before):
        np.testing.assert_array_equal(a, b)


# -- bitwise oracle: the steps as they ran on numpy arrays -------------------
#
# The steps do their per-output arithmetic (statistics update, rescale,
# normalized error, bias update) on Python floats, component by component.
# The array formulation below is the reference, kept as it was written
# before that change; every result must match it to the last bit.


def _ref_update(nrm, y):
    """``Normalizer.update`` on arrays, for any ``k``; ``y`` is valid."""
    arr = np.asarray(y, dtype=float).reshape(nrm.k)
    beta = nrm.schedule.step()
    d = arr - nrm.mu
    nrm.mu += beta * d
    np.clip(nrm.mu, -MAX_TARGET, MAX_TARGET, out=nrm.mu)
    nrm.var *= 1 - beta
    nrm.var += beta * (1 - beta) * d * d
    np.maximum(nrm.var, nrm.epsilon, out=nrm.var)
    return np.sqrt(nrm.var) / nrm.spread


class _RefLayer:
    """``OutputLayer`` on arrays: a copy of ``layer``'s state."""

    def __init__(self, layer):
        self.k = layer.k
        self.W, self.b = layer.W.copy(), layer.b.copy()
        self.sigma, self.mu = layer.sigma.copy(), layer.mu.copy()

    def unnormalized_output(self, h):
        return self.sigma * (self.W @ h + self.b) + self.mu

    def rescale_to(self, sigma_new, mu_new):
        sigma_old, mu_old = self.sigma, self.mu
        self.set_scale_shift(sigma_new, mu_new)
        self.W *= (sigma_old / self.sigma)[:, None]
        self.b = (sigma_old * self.b + mu_old - self.mu) / self.sigma

    def set_scale_shift(self, sigma_new, mu_new):
        self.sigma = np.asarray(sigma_new, dtype=float).reshape(self.k).copy()
        self.mu = np.asarray(mu_new, dtype=float).reshape(self.k).copy()


def _ref_backward(net, acts, v):
    """``Mlp.backward`` as a fresh vector per layer, then concatenated."""
    parts = []
    g = v
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = g * (1.0 - acts[i + 1] ** 2)
        parts[:0] = [(g[:, None] * acts[i]).ravel(), g]
        if i:
            g = g @ net.weights[i]
    return np.concatenate(parts)


def _ref_step(net, layer, nrm, x, y, alpha, kind, sigma=None, mu=None):
    """One step of ``kind`` (a key of ``STEPS``) in the array formulation."""
    raw = kind in ("sgd", "normalized_sgd")
    x = np.asarray(x, dtype=float)
    if not raw and sigma is None:
        sigma, mu = _ref_update(nrm, y), nrm.mu
        y = np.asarray(y, dtype=float)
    else:
        y = np.asarray(y, dtype=float).reshape(layer.k)
        if sigma is not None and raw:
            sigma = np.asarray(sigma, dtype=float).reshape(layer.k)
    if kind in ("popart", "popart_update"):
        layer.rescale_to(sigma, mu)
    elif kind == "art":
        layer.set_scale_shift(sigma, mu)
    acts = net.forward_pass(x)
    h = acts[-1]
    W = layer.W
    if raw:
        delta = W @ h + layer.b - y
        theta_seed = (delta if sigma is None else delta / sigma**2) @ W
    else:
        delta = W @ h + layer.b - (y - layer.mu) / layer.sigma
        theta_seed = delta @ W
    g_theta = _ref_backward(net, acts, theta_seed)
    g_sq = float(g_theta @ g_theta)
    net.set_params(net.get_params() - alpha * g_theta)
    d_sq = float(delta @ delta)
    grad_norm = math.sqrt(g_sq + d_sq * (1.0 + float(h @ h)))
    W -= alpha * (delta[:, None] * h)
    layer.b -= alpha * delta
    if not raw:
        error, scale, shift = delta, layer.sigma.copy(), layer.mu.copy()
    elif sigma is None:
        error, scale, shift = delta, None, None
    else:
        error, scale, shift = delta / sigma, sigma.copy(), None
    return error, 0.5 * d_sq, grad_norm, scale, shift


def _bits(value):
    """Bytes of an array or float, so NaN compares equal to NaN."""
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def _oracle_state(net, layer, nrm):
    arrays = (net.get_params(), layer.W, layer.b, layer.sigma, layer.mu, nrm.mu, nrm.var)
    return nrm.schedule.t, [a.tobytes() for a in arrays]


ORACLE_KINDS = sorted(STEPS)
oracle_target = st.one_of(
    st.floats(-MAX_TARGET, MAX_TARGET),
    st.floats(-1e4, 1e4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e160, -MAX_TARGET * (1 + 2**-50)]),
)
oracle_step = st.tuples(
    st.sampled_from(ORACLE_KINDS),
    st.lists(oracle_target, min_size=3, max_size=3),  # y, cut to k components
    st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),  # a given sigma
    st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),  # a given mu
)


_ZEROS, _ONES = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]


@settings(deadline=None, max_examples=200)
@given(
    k=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(1e-3, 1.0),
    alpha=st.sampled_from([0.0, 1e-3, 0.1]),
    scalar_target=st.booleans(),
    steps=st.lists(oracle_step, min_size=1, max_size=6),
)
# the weights overflow before the last step, whose forward pass then meets
# NaN and inf in its matmul
@example(
    k=2,
    seed=76859726,
    beta=1.0,
    alpha=0.001,
    scalar_target=False,
    steps=[
        ("normalized_sgd", [0.0, 3888.0, 0.0], [1.0, 0.3125, 1.0], _ZEROS),
        ("art", _ZEROS, _ONES, _ZEROS),
        ("art", _ZEROS, _ONES, _ZEROS),
        ("normalized_sgd", [0.0, 5.883150358016172e78, 0.0], _ONES, _ZEROS),
        ("art", _ZEROS, _ONES, _ZEROS),
        ("art", _ZEROS, _ONES, _ZEROS),
    ],
)
def test_steps_match_the_array_formulation_bitwise(k, seed, beta, alpha, scalar_target, steps):
    rng = np.random.default_rng(seed)
    net = Mlp([3, 4, 5], rng=rng)
    nrm = Normalizer(k=k, schedule=constant(beta))
    layer = OutputLayer(k, 5, normalizer=nrm, rng=rng)
    ref_net, ref_layer, ref_nrm = net.copy(), _RefLayer(layer), copy.deepcopy(nrm)
    probe = rng.normal(size=5)
    for kind, y, sigma, mu in steps:
        y = y[:k]
        if k == 1 and scalar_target:
            y = y[0]  # a lone float takes the normalizer's shortcut
        sigma, mu = sigma[:k], mu[:k]
        x = rng.normal(size=3)
        given = {"normalized_sgd": (sigma,), "popart_update": (sigma, mu)}.get(kind, ())
        live = {
            "popart": popart_sgd_step,
            "art": art_only_sgd_step,
            "sgd": plain_sgd_step,
            "normalized_sgd": normalized_sgd_step,
            "popart_update": popart_sgd_update,
        }[kind]
        limit = MAX_TARGET if kind in ("popart", "art") else math.inf
        valid = all(math.isfinite(v) and abs(v) <= limit for v in np.ravel(y))
        before = _oracle_state(net, layer, nrm)
        with np.errstate(all="ignore"):
            acts = net.forward_pass(x)
            if not valid:
                with pytest.raises(ValueError):
                    live(net, layer, acts, y, *given, alpha)
                assert _oracle_state(net, layer, nrm) == before
                continue
            report = live(net, layer, acts, y, *given, alpha)
            expected = _ref_step(ref_net, ref_layer, ref_nrm, x, y, alpha, kind, *given)
            outputs = (layer.unnormalized_output(probe), ref_layer.unnormalized_output(probe))
        got = (
            report.normalized_error,
            report.squared_loss,
            report.gradient_norm,
            report.scale,
            report.shift,
        )
        assert [_bits(v) for v in got] == [_bits(v) for v in expected], kind
        assert _oracle_state(net, layer, nrm) == _oracle_state(ref_net, ref_layer, ref_nrm)
        assert _bits(outputs[0]) == _bits(outputs[1])
