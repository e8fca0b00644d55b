"""Minimal feed-forward network with exact reverse-mode derivatives.

The network maps an input vector through tanh hidden layers to a linear
output of width ``m``.  It is deliberately tiny: dense layers only, 64-bit
floats throughout, deterministic given the seed.  Besides the forward
pass it exposes the full Jacobian of the outputs with respect to every
parameter (needed for gradient checking) and a cheaper vector-Jacobian
product used by the training steps.

The forward pass also takes a stack of inputs of shape ``(B, n_in)`` and
returns row-stacked activations, equal to the last bit to running it once
per row: each row goes through its own matrix-vector product (see
:func:`affine`), not one matrix-matrix product, whose sums may round
differently.

All parameters live in one flat float64 vector, laid out layer by layer
as ``W_0, b_0, W_1, b_1, ...`` with each ``W`` row-major.  ``weights[i]``
and ``biases[i]`` are views into that vector, so a whole-vector update is
one numpy call.  Edit them in place (``net.weights[0][...] = w``); binding
a new array to ``net.weights[i]`` detaches it from the parameters.
"""

from __future__ import annotations

import numpy as np


def affine(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``w @ a + b`` for one input ``a`` or a stack of them, one per row.

    numpy's stacked matmul runs one matrix-vector product per row, so
    each row of the result matches ``w @ row + b`` bit for bit, which
    ``a @ w.T`` does not promise.
    """
    if a.ndim == 1:
        return w @ a + b
    return (w @ a[:, :, None])[:, :, 0] + b


class Mlp:
    """Fully connected network, tanh hidden activations, linear output.

    ``layer_sizes`` lists the input width, hidden widths, and output
    width, e.g. ``[16, 10, 10, 10]``.  Weights are initialized uniformly
    in ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]`` from a seeded generator.
    """

    def __init__(self, layer_sizes, seed: int | None = None, rng=None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        if rng is None:
            rng = np.random.default_rng(seed)
        self._bind()
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _bind(self, theta: np.ndarray | None = None) -> None:
        """Adopt ``theta`` (zeros if omitted) as the parameter vector and
        make ``weights`` and ``biases`` views into it."""
        if theta is None:
            sizes = self.layer_sizes
            theta = np.zeros(sum(n * (m + 1) for m, n in zip(sizes[:-1], sizes[1:])))
        self._theta = theta
        self.n_params = theta.size
        self.weights, self.biases = self._views(theta)
        # backward fills this buffer through views built once, here; a
        # layer's bias gradient is its backpropagated seed, and the weight
        # gradient is that seed, as a column, times the layer's input
        self._grad = np.empty(theta.size)
        self._grad_weights, self._grad_biases = self._views(self._grad)
        self._grad_bias_columns = [g[:, None] for g in self._grad_biases]

    def _views(self, theta: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a parameter-layout vector."""
        weights, biases = [], []
        i = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            j = i + fan_out * fan_in
            weights.append(theta[i:j].reshape(fan_out, fan_in))
            biases.append(theta[j : j + fan_out])
            i = j + fan_out
        return weights, biases

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    # -- forward -----------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.n_inputs:
            raise ValueError(
                f"expected input of length {self.n_inputs}, or a stack of them of "
                f"shape (B, {self.n_inputs}), got shape {arr.shape}"
            )
        return arr

    def forward_pass(self, x) -> list[np.ndarray]:
        """Activations of every layer, input first, output last.

        ``x`` is one input of length ``n_inputs`` or a stack of shape
        ``(B, n_inputs)``; for a stack each activation has one row per
        input, identical to the activations of that input alone.
        """
        a = self._check_input(x)
        acts = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = affine(w, a, b)
            a = z if i == last else np.tanh(z)
            acts.append(a)
        return acts

    def forward(self, x) -> np.ndarray:
        """Output for one input, or one row per input of a stack."""
        return self.forward_pass(x)[-1]

    # -- derivatives -------------------------------------------------------

    def backward(self, acts: list[np.ndarray], v: np.ndarray) -> np.ndarray:
        """Gradient of ``v . output`` with respect to the parameter vector.

        ``acts`` must come from :meth:`forward_pass` on the same, single,
        input.  Returns a fresh array.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_outputs,):
            raise ValueError(f"expected seed of length {self.n_outputs}")
        grad_w, grad_b = self._grad_weights, self._grad_biases
        last = len(self.weights) - 1
        grad_b[last][...] = v
        for i in range(last, -1, -1):
            if i < last:
                # hidden activations are tanh outputs, so tanh' = 1 - a**2
                g = grad_b[i + 1] @ self.weights[i + 1]
                np.multiply(g, 1.0 - acts[i + 1] ** 2, out=grad_b[i])
            np.multiply(self._grad_bias_columns[i], acts[i], out=grad_w[i])
        return self._grad.copy()

    def jacobian(self, x) -> np.ndarray:
        """Exact Jacobian of shape ``(n_params, n_outputs)``."""
        acts = self.forward_pass(x)
        m = self.n_outputs
        cols = [self.backward(acts, np.eye(m)[j]) for j in range(m)]
        return np.stack(cols, axis=1)

    # -- parameter vector --------------------------------------------------

    def get_params(self) -> np.ndarray:
        return self._theta.copy()

    def set_params(self, theta) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters")
        self._theta[...] = theta

    def apply_param_step(self, direction, alpha: float) -> None:
        """In-place ``theta <- theta - alpha * direction``."""
        direction = np.asarray(direction, dtype=float)
        if direction.shape != (self.n_params,):
            raise ValueError(f"expected direction of length {self.n_params}")
        self._theta -= alpha * direction

    def copy(self) -> "Mlp":
        other = Mlp.__new__(Mlp)
        other.layer_sizes = list(self.layer_sizes)
        other._bind(self._theta.copy())
        return other
