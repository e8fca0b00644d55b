"""Minimal feed-forward network with exact reverse-mode derivatives.

The network maps an input vector through tanh hidden layers to a linear
output of width ``m``.  It is deliberately tiny: dense layers only, 64-bit
floats throughout, deterministic given the seed.  Besides the forward
pass it exposes the full Jacobian of the outputs with respect to every
parameter (needed for gradient checking) and a cheaper vector-Jacobian
product used by the training steps.

All parameters live in one flat float64 vector, laid out layer by layer
as ``W_0, b_0, W_1, b_1, ...`` with each ``W`` row-major.  ``weights[i]``
and ``biases[i]`` are views into that vector, so a whole-vector update is
one numpy call.  Edit them in place (``net.weights[0][...] = w``); binding
a new array to ``net.weights[i]`` detaches it from the parameters.

:meth:`Mlp.stack` puts the parameter vectors of ``R`` networks of one
shape into the rows of one ``(R, n_params)`` array, so that one forward
pass of one shared input serves them all; each network keeps working on
its own row.

One forward pass serves one input, a stack of inputs of shape
``(B, n_in)`` and a stack of networks; each row of its activations equals
that row's input, or the shared one, through that row's network alone, to
the last bit.  It loops over the per-layer plan :meth:`Mlp._bind` builds
for every binding, adds the bias to each fresh product and takes ``tanh``
in place.  Each product takes one of two routes:

- One input through one network takes :func:`product`'s route: ``.dot``,
  about half the cost of ``@`` on these 10- to 20-wide operands, where
  the contracted axis has at least 2 entries, and ``@`` where it has 1,
  where the two differ; elsewhere their bytes are equal.
- A stacked operand, of inputs or of networks, takes
  :func:`stacked_product`, one matrix-vector product per row.

A single network's plan also serves :meth:`Mlp.backward`, a per-sample
call whose cost is numpy's overhead more than arithmetic: it writes each
seed straight into the network's gradient buffer and returns a copy.
:meth:`Mlp.apply_param_step` subtracts ``alpha * direction`` from the
parameters and uses no buffer of the network's.  A network deep copied,
unpickled or stacked is bound again, so its plan is its own.
"""

from __future__ import annotations

import numpy as np

from .values import as_float_array, check_setting, count


def stacked_product(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``w @ a`` for a stack of vectors ``a`` of shape ``(..., n)``, a stack
    of matrices ``w`` of shape ``(..., m, n)``, or both, paired row by row.

    numpy's stacked matmul runs one matrix-vector product per row, so
    each row of the result matches that row's own ``w @ a`` bit for bit,
    which ``a @ w.T`` does not promise.
    """
    return (w @ a[..., None])[..., 0]


def product(contracted: int):
    """The route of a matrix-vector or vector-matrix product whose
    contracted axis has ``contracted`` entries: a function ``f(a, b)``,
    taking ``out=`` like both of them, that gives the bytes of ``a @ b``.

    ``ndarray.dot`` costs about half of ``@`` on small operands and gives
    the same bytes, except where the contracted axis has one entry: ``@``
    then adds the lone term to a zero, so a ``-0.0`` term gives ``0.0``,
    and a zero times inf gives NaN, where ``.dot`` gives ``-0.0`` and 0.
    """
    return np.ndarray.dot if contracted > 1 else np.matmul


# ``1 - a*a`` subtracts from this zero-dimensional array, which numpy
# reads faster than the Python float 1.0; the bits are the same
_ONE = np.array(1.0)


class Mlp:
    """Fully connected network, tanh hidden activations, linear output.

    ``layer_sizes`` lists the input width, hidden widths, and output
    width, e.g. ``[16, 10, 10, 10]``.  Weights are initialized uniformly
    in ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]`` from a seeded generator.
    """

    def __init__(self, layer_sizes, seed: int | None = None, rng=None):
        check_setting("layer_sizes", layer_sizes, lambda s: len(s) >= 2 and min(map(count, s)) >= 1)
        self.layer_sizes = [int(s) for s in layer_sizes]
        if rng is None:
            rng = np.random.default_rng(seed)
        self._bind()
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _bind(self, theta: np.ndarray | None = None) -> None:
        """Adopt ``theta`` (zeros if omitted) as the parameter vector, make
        ``weights`` and ``biases`` views into it and build the per-layer
        plan of the forward pass and, for a single network, of the
        backward pass (see the module docstring)."""
        if theta is None:
            sizes = self.layer_sizes
            theta = np.zeros(sum(n * (m + 1) for m, n in zip(sizes[:-1], sizes[1:])))
        self._theta = theta
        self.n_params = theta.shape[-1]
        self.weights, self.biases = self._views(theta)
        last = len(self.weights) - 1
        # forward: for each layer, the route of w @ a for one input, w, b,
        # and whether tanh follows
        self._forward = [
            (stacked_product if w.ndim > 2 else product(w.shape[1]), w, b, i < last)
            for i, (w, b) in enumerate(zip(self.weights, self.biases))
        ]
        if theta.ndim > 1:
            # a stack runs forward passes only
            return
        # backward fills this buffer through views built once, here; a
        # layer's bias gradient is its backpropagated seed, and the weight
        # gradient is that seed, as a column, times the layer's input.
        # The top layer: its weight gradient, seed, seed as a column, index
        self._grad = np.empty(self.n_params)
        grad_w, grad_b = self._views(self._grad)
        self._grad_top = grad_w[last], grad_b[last], grad_b[last][:, None], last
        # hidden layer i, last first: the route of seed_{i+1} @ W_{i+1},
        # those two operands, seed_i, a scratch vector for tanh', seed_i as
        # a column, the weight gradient, and i
        self._hidden = [
            (
                product(self.layer_sizes[i + 2]),
                grad_b[i + 1],
                self.weights[i + 1],
                grad_b[i],
                np.empty(self.layer_sizes[i + 1]),
                grad_b[i][:, None],
                grad_w[i],
                i,
            )
            for i in range(last - 1, -1, -1)
        ]

    def _views(self, theta: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a parameter-layout vector,
        or into a stack of them, whose leading axes the views keep."""
        weights, biases = [], []
        lead = theta.shape[:-1]
        i = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            j = i + fan_out * fan_in
            weights.append(theta[..., i:j].reshape(*lead, fan_out, fan_in))
            biases.append(theta[..., j : j + fan_out])
            i = j + fan_out
        return weights, biases

    @staticmethod
    def stack(nets) -> "Mlp":
        """One network over the parameters of ``nets``, all of one shape.

        The parameter vectors become the rows of one ``(R, n_params)``
        array, and each member is rebound onto its row: a step on a member
        moves its row of the stack in place, and no other.  The stack's
        ``weights`` and ``biases`` carry a leading run axis, and its
        :meth:`forward_pass` of one input, which every member takes, gives
        activations of shape ``(R, width)``, row ``r`` equal to member
        ``r``'s own; an input of any other shape raises ``ValueError``.
        The stack runs forward passes only; steps go to its members.
        """
        nets = list(nets)
        sizes = nets[0].layer_sizes
        if any(net.layer_sizes != sizes for net in nets):
            raise ValueError("stacked networks must all have the same layer sizes")
        theta = np.stack([net._theta for net in nets])
        for net, row in zip(nets, theta):
            net._bind(row)
        stacked = _Stack.__new__(_Stack)
        stacked.__setstate__({"layer_sizes": list(sizes), "theta": theta})
        return stacked

    # -- pickling and deep copies ----------------------------------------

    def __getstate__(self) -> dict:
        return {"layer_sizes": self.layer_sizes, "theta": self._theta}

    def __setstate__(self, state: dict) -> None:
        """Rebuild ``weights``, ``biases`` and the gradient buffer as views
        of the restored parameters; copied one by one they would be
        detached from them, and a step would not move the output."""
        self.layer_sizes = list(state["layer_sizes"])
        self._bind(state["theta"])

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    # -- forward -----------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        arr = as_float_array(x)
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
        input, identical to the activations of that input alone.  Through
        a stack of networks (:meth:`stack`) row ``r`` is network ``r``'s,
        of the one input.
        """
        a = self._check_input(x)
        acts = [a]
        # a stack of networks has stacked_product as every layer's route
        stacked = a.ndim > 1
        for route, w, b, hidden in self._forward:
            a = stacked_product(w, a) if stacked else route(w, a)
            a += b
            if hidden:
                np.tanh(a, out=a)
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
        v = as_float_array(v)
        if v.shape != (self.n_outputs,):
            raise ValueError(f"expected seed of length {self.n_outputs}")
        grad_w, seed, column, last = self._grad_top
        seed[...] = v
        np.multiply(column, acts[last], out=grad_w)
        for route, seed_above, w_above, seed, deriv, column, grad_w, i in self._hidden:
            route(seed_above, w_above, out=seed)
            # hidden activations are tanh outputs, so tanh' = 1 - a**2
            np.square(acts[i + 1], out=deriv)
            np.subtract(_ONE, deriv, out=deriv)
            np.multiply(seed, deriv, out=seed)
            np.multiply(column, acts[i], out=grad_w)
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
        direction = as_float_array(direction)
        if direction.shape != (self.n_params,):
            raise ValueError(f"expected direction of length {self.n_params}")
        self._theta -= alpha * direction

    def copy(self) -> "Mlp":
        other = Mlp.__new__(Mlp)
        other.layer_sizes = list(self.layer_sizes)
        other._bind(self._theta.copy())
        return other


class _Stack(Mlp):
    """What :meth:`Mlp.stack` returns: forward passes only."""

    def _check_input(self, x) -> np.ndarray:
        """The one input every member takes; any other shape raises here."""
        arr = as_float_array(x)
        if arr.shape != (self.n_inputs,):
            raise ValueError(
                f"a stack of {len(self._theta)} networks takes one input of length "
                f"{self.n_inputs}, got shape {arr.shape}"
            )
        return arr

    def _members_only(self, *args, **kwargs):
        raise TypeError("a stack of networks runs forward passes only; step its members")

    backward = jacobian = set_params = apply_param_step = copy = _members_only
