"""Every form of a value passes a layer boundary alike.

``OutputLayer.rescale_to``, ``Mlp.backward`` and ``Mlp.apply_param_step``
take a float64 array of the expected shape without converting it, and any
other form through ``np.asarray``.  Fed the same values as a float64 array,
a list, a float32, int or big-endian array, a non-contiguous view and, for
one value, a Python float or a 0-d array, each must leave the same bits;
and each must reject a bad value, in every form, with ``ValueError`` and
nothing moved.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart.network import Mlp
from popart.training import OutputLayer

SCALAR_FORMS = ("float", "0-d")


def _forms(values) -> dict:
    """``values`` in every form that holds them exactly."""
    arr = np.array(values, dtype=float)
    forms = {
        "float64": arr,
        "list": arr.tolist(),
        "big-endian": arr.astype(">f8"),
        # every other element of a wider array, of the same shape as arr
        "view": np.stack([arr, arr], axis=-1)[..., 0],
    }
    exact = arr.astype(np.float32)
    if exact.astype(float).tobytes() == arr.tobytes():
        forms["float32"] = exact
    if np.isfinite(arr).all():
        exact = arr.astype(np.int64)
        if exact.astype(float).tobytes() == arr.tobytes():  # not -0.0
            forms["int"] = exact
    if arr.size == 1:
        forms["float"] = arr.item()
        forms["0-d"] = np.array(arr.item())
    assert forms["view"].base is not None and forms["view"].shape == arr.shape
    return forms


def _values(lo, hi):
    # whole numbers, which every form holds, and any floats in [lo, hi]
    whole = st.integers(int(np.ceil(lo)), int(hi)).map(float)
    single = st.floats(float(np.float32(lo)), float(np.float32(hi)), width=32)
    return st.one_of(whole, single, st.floats(lo, hi))


SCALES = _values(1e-3, 1e3)
SHIFTS = _values(-1e3, 1e3)


def _layer(k: int) -> OutputLayer:
    layer = OutputLayer(k, 3, rng=k)
    layer.b[...] = np.linspace(-1.0, 2.0, k)
    layer.sigma[...], layer.mu[...] = np.linspace(0.5, 2.0, k), np.linspace(-3.0, 1.0, k)
    return layer


def _layer_bits(layer: OutputLayer) -> tuple:
    return tuple(a.tobytes() for a in (layer.W, layer.b, layer.sigma, layer.mu))


def _net(n_out: int) -> Mlp:
    return Mlp([2, 3, n_out], rng=n_out)


# -- the output layer's scale and shift ---------------------------------------


@pytest.mark.parametrize("method", ["rescale_to"])
@settings(deadline=None, max_examples=40)
@given(data=st.data(), k=st.integers(1, 3))
def test_layer_takes_every_form_of_a_scale_and_shift_alike(method, data, k):
    sigma = data.draw(st.lists(SCALES, min_size=k, max_size=k))
    mu = data.draw(st.lists(SHIFTS, min_size=k, max_size=k))
    reference = _layer(k)
    getattr(reference, method)(np.array(sigma), np.array(mu))
    for s_name, s_form in _forms(sigma).items():
        for m_name, m_form in _forms(mu).items():
            layer = _layer(k)
            getattr(layer, method)(s_form, m_form)
            assert _layer_bits(layer) == _layer_bits(reference), (s_name, m_name)


def _bad(k: int, what: str) -> list[float]:
    """``k`` good values with one made bad, or a wrong number of them."""
    if what == "short":
        return [1.0] * (k - 1)
    if what == "long":
        return [1.0] * (k + 1)
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "zero": 0.0, "negative": -2.0}
    values = [1.5] * k
    values[-1] = bad[what]
    return values


@pytest.mark.parametrize("method", ["rescale_to"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("what", ["nan", "inf", "-inf", "zero", "negative", "short", "long"])
def test_layer_rejects_every_form_of_a_bad_scale_alike(method, k, what):
    layer = _layer(k)
    before = _layer_bits(layer)
    for name, form in _forms(_bad(k, what)).items():
        with pytest.raises(ValueError):
            getattr(layer, method)(form, np.zeros(k))
        assert _layer_bits(layer) == before, name


@pytest.mark.parametrize("method", ["rescale_to"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("what", ["nan", "inf", "-inf", "short", "long"])
def test_layer_rejects_every_form_of_a_bad_shift_alike(method, k, what):
    layer = _layer(k)
    before = _layer_bits(layer)
    for name, form in _forms(_bad(k, what)).items():
        with pytest.raises(ValueError):
            getattr(layer, method)(np.ones(k), form)
        assert _layer_bits(layer) == before, name


@pytest.mark.parametrize("method", ["rescale_to"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_layer_rejects_a_scale_or_shift_of_another_shape(method, k):
    # a row or a column of k values used to be taken through reshape(k)
    layer = _layer(k)
    before = _layer_bits(layer)
    for bad in (np.ones((1, k)), np.ones((k, 1))):
        with pytest.raises(ValueError, match="expected"):
            getattr(layer, method)(bad, np.zeros(k))
        with pytest.raises(ValueError, match="expected"):
            getattr(layer, method)(np.ones(k), bad)
        assert _layer_bits(layer) == before


# -- the network's seed and step direction -------------------------------------


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n_out=st.integers(1, 3))
def test_backward_takes_every_form_of_a_seed_alike(data, n_out):
    net = _net(n_out)
    acts = net.forward_pass([0.3, -0.7])
    v = data.draw(st.lists(SHIFTS, min_size=n_out, max_size=n_out))
    reference = net.backward(acts, np.array(v))
    for name, form in _forms(v).items():
        if name in SCALAR_FORMS:  # a seed is a vector, even of one output
            with pytest.raises(ValueError):
                net.backward(acts, form)
        else:
            assert net.backward(acts, form).tobytes() == reference.tobytes(), name


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n_out=st.integers(1, 3), alpha=st.floats(-2.0, 2.0))
def test_apply_param_step_takes_every_form_of_a_direction_alike(data, n_out, alpha):
    n = _net(n_out).n_params
    direction = data.draw(st.lists(SHIFTS, min_size=n, max_size=n))
    reference = _net(n_out)
    reference.apply_param_step(np.array(direction), alpha)
    for name, form in _forms(direction).items():
        net = _net(n_out)
        net.apply_param_step(form, alpha)
        assert net.get_params().tobytes() == reference.get_params().tobytes(), name


def _misshapen(n: int) -> list:
    """Float64 arrays of every wrong shape near ``(n,)``: one more or one
    fewer value, a column, a scalar and, if ``n > 1``, one value, which
    numpy would broadcast."""
    shapes = [(n + 1,), (n - 1,), (n, 1), ()] + ([(1,)] if n > 1 else [])
    return [np.full(shape, 0.5) for shape in shapes]


@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_backward_rejects_every_form_of_a_misshapen_seed(n_out):
    net = _net(n_out)
    acts = net.forward_pass([0.3, -0.7])
    theta = net.get_params()
    for bad in _misshapen(n_out):
        for name, form in _forms(bad).items():
            with pytest.raises(ValueError):
                net.backward(acts, form)
            assert net.get_params().tobytes() == theta.tobytes(), (bad.shape, name)


@pytest.mark.parametrize("n_out", [1, 2, 3])
def test_apply_param_step_rejects_every_form_of_a_misshapen_direction(n_out):
    net = _net(n_out)
    theta = net.get_params()
    for bad in _misshapen(net.n_params):
        for name, form in _forms(bad).items():
            with pytest.raises(ValueError):
                net.apply_param_step(form, 0.5)
            assert net.get_params().tobytes() == theta.tobytes(), (bad.shape, name)
