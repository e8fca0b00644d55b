"""The two formulations (output-preserving rescale vs scaled lower-layer
updates) must trace identical lower-layer parameters and identical
unnormalized outputs from identical initializations, for any shared
sequence of positive scales and shifts.
"""

import numpy as np

from popart.network import Mlp
from popart.training import OutputLayer, normalized_sgd_step, popart_sgd_update


def _paired_setup(seed):
    rng = np.random.default_rng(seed)
    net_a = Mlp([4, 6, 5], rng=rng)
    layer_a = OutputLayer(1, 5, rng=rng)
    net_b = net_a.copy()
    layer_b = OutputLayer(1, 5, rng=0)
    layer_b.W[...], layer_b.b[...] = layer_a.W, layer_a.b
    return net_a, layer_a, net_b, layer_b


def _run_lockstep(seed, n_steps, alpha=1e-3, with_shift=True):
    net_a, layer_a, net_b, layer_b = _paired_setup(seed)
    rng = np.random.default_rng([seed, 77])
    probes = rng.normal(size=(20, 4))
    for _ in range(n_steps):
        x = rng.normal(size=4)
        y = rng.normal(scale=3.0)
        sigma = 10.0 ** rng.uniform(-0.5, 0.5, size=1)
        mu = rng.normal(size=1) if with_shift else np.zeros(1)
        popart_sgd_update(net_a, layer_a, net_a.forward_pass(x), y, sigma, mu, alpha)
        normalized_sgd_step(net_b, layer_b, net_b.forward_pass(x), y, sigma, alpha)
    theta_diff = np.max(np.abs(net_a.get_params() - net_b.get_params()))
    theta_scale = max(np.max(np.abs(net_b.get_params())), 1.0)
    out_diff = 0.0
    for p in probes:
        f_a = layer_a.unnormalized_output(net_a.forward_pass(p)[-1])
        f_b = layer_b.unnormalized_output(net_b.forward_pass(p)[-1])
        out_diff = max(out_diff, float(np.max(np.abs(f_a - f_b) / (1.0 + np.abs(f_b)))))
    return theta_diff / theta_scale, out_diff


def test_lockstep_equivalence_short():
    theta_diff, out_diff = _run_lockstep(seed=0, n_steps=200)
    assert theta_diff < 1e-10
    assert out_diff < 1e-10


def test_lockstep_equivalence_scale_only():
    theta_diff, out_diff = _run_lockstep(seed=1, n_steps=200, with_shift=False)
    assert theta_diff < 1e-10
    assert out_diff < 1e-10


def test_lockstep_equivalence_thousand_steps():
    theta_diff, out_diff = _run_lockstep(seed=2, n_steps=1000)
    assert theta_diff < 1e-8
    assert out_diff < 1e-8
