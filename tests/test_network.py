import copy
import math
import pickle

import numpy as np
import pytest

from popart.network import Mlp
from popart.training import OutputLayer, plain_sgd_step


def _straight_line_forward(net, x):
    """Independent scalar-loop re-implementation of the forward pass."""
    a = list(map(float, x))
    n_layers = len(net.weights)
    for li in range(n_layers):
        w = net.weights[li]
        b = net.biases[li]
        z = []
        for j in range(w.shape[0]):
            acc = float(b[j])
            for i in range(w.shape[1]):
                acc += float(w[j, i]) * a[i]
            z.append(acc)
        a = z if li == n_layers - 1 else [math.tanh(v) for v in z]
    return np.array(a)


def test_forward_matches_straight_line_oracle():
    net = Mlp([4, 5, 3], seed=1734)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=4)
        np.testing.assert_allclose(net.forward(x), _straight_line_forward(net, x), rtol=1e-12)


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _nan_blind(a):
    """The bytes of ``a`` with every NaN made the same NaN.

    numpy's elementwise loops give ``NaN + NaN`` the sign and payload of
    either operand, depending on the arrays' length and on whether they
    add in place, so a stack and its rows may differ in those and in
    nothing else.
    """
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _assert_rows_of(stacked, rows, key=np.ndarray.tobytes):
    """Each layer's stacked activations are the rows' own, stacked: the
    same shape, and the same ``key``, by default the same bytes."""
    assert len(stacked) == len(rows[0])
    for i, a in enumerate(stacked):
        expected = np.array([r[i] for r in rows])
        assert a.shape == expected.shape and key(a) == key(expected), i


@pytest.mark.parametrize(
    "sizes", [[3, 1], [4, 5, 1], [7, 20, 20], [6, 10, 10, 3], [2, 7, 4, 1], [4, 1], [1, 3, 1]]
)
def test_stacked_forward_pass_equals_per_row_calls_bitwise(sizes):
    rng = np.random.default_rng(len(sizes) * 100 + sizes[-1])
    for seed in range(4):
        net = Mlp(sizes, seed=seed)
        for n_rows in range(1, 9):
            xs = rng.normal(size=(n_rows, sizes[0])) * 10.0 ** rng.uniform(-2, 1)
            _assert_rows_of(net.forward_pass(xs), [net.forward_pass(x) for x in xs])
            _assert_bitwise(net.forward(xs), np.array([net.forward(x) for x in xs]))
    # parameters and inputs with signed zeros, subnormals, infinities, NaN
    # and +-1e308 mixed in
    for _ in range(50):
        net.set_params(mixed(rng, net.n_params))
        xs = np.array([mixed(rng, sizes[0]) for _ in range(rng.integers(1, 6))])
        with np.errstate(all="ignore"):
            rows = [net.forward_pass(x) for x in xs]
            _assert_rows_of(net.forward_pass(xs), rows, _nan_blind)


def test_zero_weight_network_outputs_final_bias():
    net = Mlp([3, 4, 2], seed=0)
    for w in net.weights:
        w[...] = 0.0
    net.biases[-1][:] = [1.5, -2.0]
    np.testing.assert_allclose(net.forward([9.0, -3.0, 7.0]), [1.5, -2.0])


def test_single_linear_layer_identity():
    net = Mlp([3, 3], seed=0)
    net.weights[0][...] = np.eye(3)
    x = np.array([0.3, -1.2, 4.0])
    np.testing.assert_allclose(net.forward(x), x)


def test_linear_layer_jacobian_analytic():
    # single linear layer: d out_j / d W[j, i] = x_i, d out_j / d b_j = 1
    net = Mlp([3, 2], seed=1)
    x = np.array([2.0, -1.0, 0.5])
    jac = net.jacobian(x)
    assert jac.shape == (net.n_params, 2)
    expected0 = np.concatenate([x, np.zeros(3), [1.0, 0.0]])
    expected1 = np.concatenate([np.zeros(3), x, [0.0, 1.0]])
    np.testing.assert_allclose(jac[:, 0], expected0)
    np.testing.assert_allclose(jac[:, 1], expected1)


def _fd_jacobian(net, x, h=1e-5):
    theta = net.get_params()
    cols = np.empty((net.n_params, net.n_outputs))
    for i in range(net.n_params):
        for sign, store in ((1.0, "plus"), (-1.0, "minus")):
            probe = theta.copy()
            probe[i] += sign * h
            net.set_params(probe)
            if store == "plus":
                f_plus = net.forward(x)
            else:
                f_minus = net.forward(x)
        cols[i] = (f_plus - f_minus) / (2.0 * h)
    net.set_params(theta)
    return cols


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    for seed in range(5):
        net = Mlp([3, 4, 2], seed=seed)
        x = rng.normal(size=3)
        jac = net.jacobian(x)
        fd = _fd_jacobian(net, x)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(jac - fd) / scale) < 1e-5


def test_saturated_hidden_units_kill_gradients():
    net = Mlp([2, 3, 1], seed=7)
    jac = net.jacobian(np.array([1e6, -1e6]))
    # entries for the first-layer weights: tanh' at saturation is ~0
    first_layer = jac[: net.weights[0].size, 0]
    assert np.max(np.abs(first_layer)) < 1e-8


def test_backward_is_vector_jacobian_product():
    net = Mlp([4, 6, 3], seed=3)
    x = np.random.default_rng(1).normal(size=4)
    v = np.array([0.7, -1.1, 0.4])
    acts = net.forward_pass(x)
    np.testing.assert_allclose(net.backward(acts, v), net.jacobian(x) @ v, rtol=1e-12)


def _reference_backward(net, acts, v):
    """The vector-Jacobian product written out layer by layer with
    ``W.T @ g`` and a concatenation, the oracle for :meth:`Mlp.backward`."""
    g = np.asarray(v, dtype=float)
    parts = []
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = g * (1.0 - acts[i + 1] ** 2)
        parts[:0] = [np.outer(g, acts[i]).ravel(), g]
        g = net.weights[i].T @ g
    return np.concatenate(parts)


@pytest.mark.parametrize("sizes", [[3, 1], [4, 6, 3], [7, 20, 20], [5, 10, 10, 10, 2]])
def test_backward_equals_reference_bitwise(sizes):
    rng = np.random.default_rng(len(sizes))
    net = Mlp(sizes, seed=sum(sizes))
    for _ in range(20):
        acts = net.forward_pass(rng.normal(size=sizes[0]) * 2.0)
        v = rng.normal(size=sizes[-1]) * 10.0 ** rng.uniform(-3, 3)
        _assert_bitwise(net.backward(acts, v), _reference_backward(net, acts, v))


def test_backward_returns_fresh_arrays():
    net = Mlp([3, 4, 2], seed=0)
    acts = net.forward_pass([0.1, -0.2, 0.3])
    first = net.backward(acts, [1.0, 0.0])
    kept = first.copy()
    second = net.backward(acts, [0.0, 1.0])
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)
    other = net.copy()
    assert not np.shares_memory(net.backward(acts, [1.0, 0.0]), other.backward(acts, [1.0, 0.0]))


def test_apply_param_step_contracts():
    net = Mlp([3, 4, 2], seed=5)
    theta = net.get_params()
    direction = np.arange(net.n_params, dtype=float)

    net.apply_param_step(direction, 0.0)
    np.testing.assert_array_equal(net.get_params(), theta)

    net.apply_param_step(theta, 1.0)
    np.testing.assert_allclose(net.get_params(), 0.0, atol=1e-15)

    # two half steps equal one full step
    a = Mlp([3, 4, 2], seed=5)
    b = Mlp([3, 4, 2], seed=5)
    a.apply_param_step(direction, 0.2)
    b.apply_param_step(direction, 0.1)
    b.apply_param_step(direction, 0.1)
    np.testing.assert_allclose(a.get_params(), b.get_params(), rtol=1e-12)


@pytest.mark.parametrize("sizes", [[3, 1], [1, 3, 1], [4, 5, 2], [16, 10, 10, 10]])
def test_apply_param_step_equals_theta_minus_alpha_direction_bitwise(sizes):
    # parameters and directions with +-0, subnormals, +-inf, NaN of either
    # sign and +-1e308, on a network that has never run backward, and on
    # one stepping along the gradient its backward has just returned
    rng = np.random.default_rng(len(sizes) + sizes[0])
    for trial in range(100):
        net = Mlp(sizes, seed=trial)
        n = net.n_params
        theta = np.copysign(mixed(rng, n), rng.choice([1.0, -1.0], size=n))
        net.set_params(theta)
        alpha = float(rng.choice([0.1, 1.0, 3.0, 1e-300]))
        with np.errstate(all="ignore"):
            if trial % 2:
                acts = net.forward_pass(mixed(rng, sizes[0]))
                direction = net.backward(acts, mixed(rng, sizes[-1]))
            else:
                direction = np.copysign(mixed(rng, n), rng.choice([1.0, -1.0], size=n))
            returned = direction.copy()
            expected = theta - alpha * direction
            net.apply_param_step(direction, alpha)
        assert net.get_params().tobytes() == expected.tobytes(), trial
        assert direction.tobytes() == returned.tobytes(), trial


def test_param_vector_round_trip():
    net = Mlp([3, 5, 2], seed=9)
    theta = net.get_params()
    other = Mlp([3, 5, 2], seed=10)
    other.set_params(theta)
    np.testing.assert_array_equal(other.get_params(), theta)


def test_determinism_same_seed_bit_identical():
    a = Mlp([16, 10, 10, 10], seed=123)
    b = Mlp([16, 10, 10, 10], seed=123)
    np.testing.assert_array_equal(a.get_params(), b.get_params())
    x = np.ones(16)
    np.testing.assert_array_equal(a.forward(x), b.forward(x))


def test_init_bounds_respect_fan_in():
    net = Mlp([100, 50], seed=0)
    assert np.max(np.abs(net.weights[0])) <= 0.1
    assert np.all(net.biases[0] == 0.0)


def test_dimension_errors():
    net = Mlp([3, 2], seed=0)
    # a short input, a scalar, a stack of short inputs, a 3-D stack
    for x in ([1.0, 2.0], 1.0, np.zeros((2, 2)), np.zeros((2, 1, 3))):
        with pytest.raises(ValueError):
            net.forward(x)
        with pytest.raises(ValueError):
            net.forward_pass(x)
    with pytest.raises(ValueError):
        net.set_params(np.zeros(net.n_params + 1))
    with pytest.raises(ValueError):
        Mlp([4])


# -- flat parameter vector ---------------------------------------------------


def _assert_views_of_params(net):
    """In-place edits of weights and biases show in the parameter vector in
    layout order, and a vector update shows in every weight and bias."""
    arrays = [a for pair in zip(net.weights, net.biases) for a in pair]
    expected = []
    for k, a in enumerate(arrays):
        values = 100.0 * k + np.arange(a.size, dtype=float)
        a[...] = values.reshape(a.shape)
        expected.append(values)
    np.testing.assert_array_equal(net.get_params(), np.concatenate(expected))
    net.apply_param_step(np.ones(net.n_params), 0.5)
    for a, values in zip(arrays, expected):
        np.testing.assert_array_equal(a.ravel(), values - 0.5)


def _fresh():
    return Mlp([3, 4, 5, 2], seed=21)


@pytest.mark.parametrize(
    "make",
    [
        _fresh,
        lambda: _fresh().copy(),
        lambda: copy.deepcopy(_fresh()),
        lambda: pickle.loads(pickle.dumps(_fresh())),
    ],
    ids=["init", "copy", "deepcopy", "pickle"],
)
def test_weights_and_biases_are_views_of_params(make):
    net = make()
    _assert_views_of_params(net)
    net.set_params(np.linspace(-1.0, 1.0, net.n_params))
    _assert_views_of_params(net)


def test_copies_share_no_memory():
    net = _fresh()
    other = net.copy()
    for a, b in zip([*net.weights, *net.biases], [*other.weights, *other.biases]):
        assert not np.shares_memory(a, b)
    theta = other.get_params()
    net.weights[0][...] = 7.0
    net.apply_param_step(np.ones(net.n_params), 1.0)
    np.testing.assert_array_equal(other.get_params(), theta)
    params = net.get_params()
    params[...] = 0.0
    assert np.all(net.weights[0] == 6.0)


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
    ids=["deepcopy", "pickle"],
)
def test_restored_copy_steps_and_differentiates_like_the_original(clone):
    # a deep copy or an unpickled network is bound to parameters of its
    # own: a step moves its output and leaves the original's alone, and
    # its gradient buffer is laid out like the original's
    net = _fresh()
    other = clone(net)
    x = np.array([0.3, -0.2, 0.5])
    acts = net.forward_pass(x)
    assert not np.shares_memory(other.get_params(), net.get_params())
    assert other.backward(other.forward_pass(x), np.ones(2)).tobytes() == net.backward(
        acts, np.ones(2)
    ).tobytes()
    before = net.forward(x)
    other.apply_param_step(np.ones(other.n_params), 0.1)
    assert not np.array_equal(other.forward(x), before)
    assert net.forward(x).tobytes() == before.tobytes()
    net.apply_param_step(np.ones(net.n_params), 0.1)
    assert other.forward(x).tobytes() == net.forward(x).tobytes()


def test_init_draws_each_layer_in_order():
    rng = np.random.default_rng(5)
    net = Mlp([4, 3, 2], seed=5)
    for w, fan_in in zip(net.weights, (4, 3)):
        bound = 1.0 / np.sqrt(fan_in)
        np.testing.assert_array_equal(w, rng.uniform(-bound, bound, size=w.shape))
    assert net.n_params == 3 * 4 + 3 + 2 * 3 + 2


# -- stacks of networks ----------------------------------------------------


def _members(sizes, n):
    return [Mlp(sizes, seed=seed) for seed in range(n)]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("sizes", [[16, 10, 10, 10], [16, 5, 3], [4, 1], [1, 3, 1]])
def test_stack_forward_pass_rows_equal_members_bitwise(sizes, n):
    nets = _members(sizes, n)
    stack = Mlp.stack(nets)
    assert stack.n_params == nets[0].n_params
    rng = np.random.default_rng(1)
    x = rng.normal(size=sizes[0])
    stacked = stack.forward_pass(x)
    np.testing.assert_array_equal(stacked[0], x)
    for r, net in enumerate(nets):
        for a, own in zip(stacked[1:], net.forward_pass(x)[1:]):
            assert a.shape == (n, own.size)
            _assert_bitwise(a[r], own)
    # members' parameters and inputs with signed zeros, subnormals,
    # infinities, NaN and +-1e308 mixed in
    for _ in range(50):
        for net in nets:
            net.set_params(mixed(rng, net.n_params))
        x = mixed(rng, sizes[0])
        with np.errstate(all="ignore"):
            shared = [net.forward_pass(x)[1:] for net in nets]
            _assert_rows_of(stack.forward_pass(x)[1:], shared, _nan_blind)


def test_stack_keeps_each_members_parameters_and_views():
    nets = _members([6, 4, 2], 3)
    params = [net.get_params() for net in nets]
    stack = Mlp.stack(nets)
    for r, net in enumerate(nets):
        np.testing.assert_array_equal(net.get_params(), params[r])
        _assert_views_of_params(net)
        for w, b, ws, bs in zip(net.weights, net.biases, stack.weights, stack.biases):
            assert np.shares_memory(w, ws) and np.shares_memory(b, bs)
            _assert_bitwise(ws[r], w)
            _assert_bitwise(bs[r], b)


def test_step_on_a_member_moves_its_row_only():
    nets = _members([6, 4, 2], 3)
    stack = Mlp.stack(nets)
    before = stack.get_params()
    nets[1].apply_param_step(np.ones(nets[1].n_params), 0.5)
    after = stack.get_params()
    np.testing.assert_array_equal(after[1], before[1] - 0.5)
    np.testing.assert_array_equal(after[[0, 2]], before[[0, 2]])
    x = np.linspace(-1.0, 1.0, 6)
    _assert_bitwise(stack.forward(x)[1], nets[1].forward(x))


def test_stack_runs_forward_passes_only():
    nets = _members([6, 4, 2], 2)
    stack = Mlp.stack(nets)
    before = stack.get_params()
    acts = stack.forward_pass(np.ones(6))
    for call in (
        lambda: stack.backward(acts, np.ones(2)),
        lambda: stack.jacobian(np.ones(6)),
        lambda: stack.apply_param_step(np.ones(stack.n_params), 1.0),
        lambda: stack.set_params(np.zeros(stack.n_params)),
        stack.copy,
    ):
        with pytest.raises(TypeError, match="forward passes only"):
            call()
    np.testing.assert_array_equal(stack.get_params(), before)


def test_stack_rejects_networks_of_other_shapes():
    with pytest.raises(ValueError, match="same layer sizes"):
        Mlp.stack([Mlp([6, 4, 2], seed=0), Mlp([6, 3, 2], seed=0)])


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4])
def test_stack_rejects_a_stack_of_inputs_of_another_count(n_rows):
    # numpy's broadcast error named neither shape, and one row was
    # broadcast to every member; a stack of networks takes one input only
    stack = Mlp.stack(_members([6, 4, 2], 3))
    xs = np.ones((n_rows, 6))
    for call in (stack.forward_pass, stack.forward):
        with pytest.raises(ValueError, match=rf"input of length 6, got shape \({n_rows}, 6\)"):
            call(xs)


# -- product routes: .dot where its bytes equal those of @ ------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf, math.nan,
           1e308, -1e308]


def mixed(rng, n):
    """``n`` normal draws with ±0, subnormals, ±inf, NaN and ±1e308 mixed in;
    or, one time in two, signed zeros and smallest subnormals, whose
    products with small weights round to zeros of either sign."""
    if rng.random() < 0.5:
        return rng.choice([0.0, -0.0, 5e-324, -5e-324], size=n)
    a = rng.normal(size=n)
    special = rng.random(n) < 0.4
    a[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return a


def _matmul_pass(net, x):
    """The forward pass, every product through ``@``."""
    a, acts = x, [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = w @ a + b
        a = z if i == last else np.tanh(z)
        acts.append(a)
    return acts


def _matmul_backward(net, acts, v):
    """``backward``, every product through ``@``."""
    g, parts = v, []
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            g = g * (1.0 - acts[i + 1] ** 2)
        parts[:0] = [(g[:, None] * acts[i]).ravel(), g]
        if i:
            g = g @ net.weights[i]
    return np.concatenate(parts)


# the package's shapes, then a fan-in of 1 (W @ a contracts 1 entry) and an
# output of width 1 under a hidden layer (seed @ W contracts 1 entry)
@pytest.mark.parametrize("sizes", [[16, 10, 10, 10], [7, 20, 20], [1, 3, 1], [3, 1, 2], [2, 4, 1, 3]])
def test_network_product_routes_give_the_bytes_of_matmul(sizes):
    rng = np.random.default_rng(sum(sizes))
    net = Mlp(sizes, seed=0)
    n = net.n_params
    for trial in range(200):
        # the weights are views at odd offsets into a flat parameter vector
        offset = 1 + 2 * (trial % 4)
        net.__setstate__({"layer_sizes": sizes, "theta": mixed(rng, n + 8)[offset : offset + n]})
        for b in net.biases:
            b[...] = -0.0  # adds nothing, and keeps the sign of every zero
        x, v = mixed(rng, sizes[0]), mixed(rng, sizes[-1])
        with np.errstate(all="ignore"):
            acts = net.forward_pass(x)
            expected = _matmul_pass(net, x)
            grad, expected_grad = net.backward(acts, v), _matmul_backward(net, acts, v)
        for i, (a, b) in enumerate(zip(acts, expected)):
            assert a.tobytes() == b.tobytes(), (trial, i)
        assert grad.tobytes() == expected_grad.tobytes(), trial


# k = 1 over the package's feature widths, then W @ h over 1 feature
@pytest.mark.parametrize(("k", "m"), [(1, 10), (1, 20), (2, 1), (1, 1), (3, 5)])
def test_output_layer_product_routes_give_the_bytes_of_matmul(k, m):
    rng = np.random.default_rng(10 * k + m)
    net = Mlp([2, m], seed=0)
    layer = OutputLayer(k, m, seed=0)
    x = np.zeros(2)
    seeds = []
    backward = net.backward
    net.backward = lambda acts, v: seeds.append(v.copy()) or backward(acts, v)
    for trial in range(200):
        # W is a view at an odd offset into a flat vector; b = mu = -0.0 and
        # y = 0.0 keep the sign of every zero in W @ h
        offset = 1 + 2 * (trial % 4)
        layer.W = W = mixed(rng, k * m + 8)[offset : offset + k * m].reshape(k, m)
        layer.b[...], layer.mu[...] = -0.0, -0.0
        h = mixed(rng, m)
        W_before = W.copy()
        with np.errstate(all="ignore"):
            assert layer.normalized_output(h).tobytes() == (W @ h - 0.0).tobytes(), trial
            assert layer.unnormalized_output(h).tobytes() == (W @ h - 0.0).tobytes(), trial
            report = plain_sgd_step(net, layer, x, [0.0] * k, 0.0, acts=[x, h])
            delta = report.normalized_error
            assert delta.tobytes() == (W_before @ h - 0.0 - 0.0).tobytes(), trial
            assert seeds[-1].tobytes() == (delta @ W_before).tobytes(), trial
