"""Output-preserving rescaling and the SGD variants built on it.

The :class:`OutputLayer` is the final linear map ``W h + b`` together
with the scale/shift pair ``(sigma, mu)`` it is currently calibrated to,
so the unnormalized prediction is ``sigma * (W h + b) + mu``.  When the
statistics move, :meth:`OutputLayer.rescale_to` compensates ``W`` and
``b`` so the unnormalized outputs are unchanged pointwise.  The layer's
outputs and :func:`predict` also take a stack of inputs of shape
``(B, n)``, one per row, and give each row exactly what that input alone
gives; the SGD steps take one input at a time.

Four per-sample squared-loss SGD steps are provided:

- :func:`popart_sgd_step`: statistics update, compensating rescale, then
  SGD on the normalized error (the full scheme).
- :func:`art_only_sgd_step`: statistics update without the compensating
  rescale (normalization alone, outputs drift).
- :func:`plain_sgd_step`: no statistics at all, SGD on raw targets.
- :func:`normalized_sgd_step`: the dual formulation that keeps the top
  layer in unnormalized space but divides the lower-layer update by the
  squared scale; from identical initializations it traces the exact same
  lower-layer parameters and unnormalized outputs as the first variant.

All four run through one private step core and differ only in how the
new scale/shift is adopted and where ``sigma`` enters the lower-layer
update.  Each step checks every input before it mutates ``net`` and
``layer`` in place, and returns a :class:`TrainStepReport`.  Errors
follow the convention ``delta = prediction - target``, with subtractive
updates.

A step works on vectors of length ``k``, the number of outputs, which is
small; numpy's overhead per call would dominate them.  So the per-output
arithmetic, that is the update of one-output statistics, the rescale
ratio and new bias, the checks of ``sigma`` and ``mu``, the normalized
error ``delta`` and the bias update, runs as a loop over the ``k``
components on Python floats, with the same IEEE operations in the same
order as numpy's elementwise ones, so the results are the same to the
last bit.  Every product with ``W``, the features ``h`` or the parameter
vector stays in numpy, since its bits depend on numpy's summation order.

These four steps take an optional keyword ``acts``: the activations
``net.forward_pass(x)`` that the caller already computed on the current
parameters, for instance to measure a test error with
``layer.unnormalized_output(acts[-1])`` before the step.  The step then
uses them in place of its own forward pass; the rescale and the
statistics update only move the output layer, so the result is the same
to the last bit.  ``acts`` is checked together with the other inputs: it
must have one entry per layer, each as wide as that layer, and ``acts[0]``
must equal ``x``.  That it belongs to the current parameters is the
caller's promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Mlp, affine
from .stats import Normalizer, _as_floats


@dataclass
class TrainStepReport:
    """Per-step diagnostics, returned by every SGD step."""

    normalized_error: np.ndarray
    squared_loss: float
    gradient_norm: float
    scale: np.ndarray | None = None
    shift: np.ndarray | None = None


class OutputLayer:
    """Final linear layer ``W h + b`` with its scale/shift calibration.

    ``k`` is the number of outputs, ``m`` the width of the feature vector
    it consumes.  ``sigma`` starts at ones and ``mu`` at zeros, matching a
    fresh identity normalization.

    ``b``, ``sigma`` and ``mu`` are float arrays of length ``k``, which
    a rescale and a step overwrite in place, component by component, on
    Python floats (see the module docstring); ``W h`` and the update of
    ``W`` stay in numpy.  A stack of inputs is computed with numpy alone.
    """

    def __init__(
        self,
        k: int,
        m: int,
        normalizer: Normalizer | None = None,
        W: np.ndarray | None = None,
        b: np.ndarray | None = None,
        seed: int | None = None,
        rng=None,
    ):
        self.k = int(k)
        self.m = int(m)
        if W is None:
            if rng is None:
                rng = np.random.default_rng(seed)
            bound = 1.0 / np.sqrt(m)
            W = rng.uniform(-bound, bound, size=(k, m))
        self.W = np.array(W, dtype=float).reshape(k, m)
        self.b = np.zeros(k) if b is None else np.array(b, dtype=float).reshape(k)
        self.sigma = np.ones(k)
        self.mu = np.zeros(k)
        self.normalizer = normalizer

    def normalized_output(self, h) -> np.ndarray:
        """``W h + b`` for one feature vector, or one row per row of a
        stack of shape ``(B, m)``."""
        return affine(self.W, np.asarray(h, dtype=float), self.b)

    def unnormalized_output(self, h) -> np.ndarray:
        """``sigma * (W h + b) + mu``, row by row for a stack."""
        h = np.asarray(h, dtype=float)
        if h.ndim > 1:
            return self.sigma * self.normalized_output(h) + self.mu
        out = self.W @ h
        b, sigma, mu = self.b, self.sigma, self.mu
        for i, z in enumerate(out.tolist()):
            out[i] = sigma.item(i) * (z + b.item(i)) + mu.item(i)
        return out

    def rescale_to(self, sigma_new, mu_new) -> None:
        """Adopt a new scale/shift without changing unnormalized outputs."""
        sigma_new, mu_new = self._checked(sigma_new, mu_new)
        W, b, sigma, mu = self.W, self.b, self.sigma, self.mu
        for i, (s_old, m_old, s, m) in enumerate(zip(sigma.tolist(), mu.tolist(), sigma_new, mu_new)):
            W[i] *= s_old / s
            b[i] = (s_old * b.item(i) + m_old - m) / s
            sigma[i], mu[i] = s, m

    def set_scale_shift(self, sigma_new, mu_new) -> None:
        """Adopt a new scale/shift *without* compensation (outputs move).

        ``sigma_new`` must be finite and positive and ``mu_new`` finite;
        otherwise nothing changes and ``ValueError`` is raised.
        """
        self.sigma[...], self.mu[...] = self._checked(sigma_new, mu_new)

    def _checked(self, sigma, mu) -> tuple[list[float], list[float]]:
        """``sigma`` and ``mu`` as ``k`` Python floats each, checked."""
        sigma = _as_scale(sigma, self.k)
        mu = np.asarray(mu, dtype=float).reshape(self.k).tolist()
        if not all(map(math.isfinite, mu)):
            raise ValueError("mu_new must be finite")
        return sigma, mu


def _as_scale(sigma, k: int) -> list[float]:
    """``sigma`` as ``k`` Python floats, checked finite and positive."""
    values = np.asarray(sigma, dtype=float).reshape(k).tolist()
    # NaN fails both comparisons
    if not all(0.0 < s < math.inf for s in values):
        raise ValueError("sigma must be componentwise finite and positive")
    return values


def predict(net: Mlp, layer: OutputLayer, x) -> np.ndarray:
    """Unnormalized prediction ``sigma * (W h(x) + b) + mu``.

    For a stack of inputs of shape ``(B, n_in)`` it returns one row per
    input, each equal to the prediction for that input alone.
    """
    return layer.unnormalized_output(net.forward(x))


# How a step takes on its scale/shift before the gradient step.
_COMPENSATE = "compensate"  # rescale W, b so unnormalized outputs stay put
_ADOPT_RAW = "adopt raw"  # adopt as is, so unnormalized outputs move
_RAW_TARGETS = "raw targets"  # keep the identity and fit raw targets


def _sgd_step(
    net, layer: OutputLayer, x, y, alpha, adoption, sigma=None, mu=None, acts=None
) -> TrainStepReport:
    """The one squared-loss SGD step behind every public variant.

    With ``_COMPENSATE`` or ``_ADOPT_RAW`` the new scale/shift is
    ``(sigma, mu)``, or, if ``sigma`` is None, the layer normalizer's
    statistics after it absorbs ``y``.  With ``_RAW_TARGETS`` a given
    ``sigma`` only divides the lower-layer seed by ``sigma**2``.  ``acts``,
    if given, is ``net.forward_pass(x)`` on the current parameters and
    stands in for the step's own forward pass.  Every input is checked
    once, before anything is mutated; a target the normalizer absorbs is
    checked by :meth:`Normalizer.update`, the first thing that moves.
    """
    x = np.asarray(x, dtype=float)
    n_in = net.layer_sizes[0]
    if x.shape != (n_in,):
        raise ValueError(f"expected input of length {n_in}, got shape {x.shape}")
    if acts is not None:
        if len(acts) != len(net.layer_sizes):
            raise ValueError(
                f"expected {len(net.layer_sizes)} activations, one per layer, got {len(acts)}"
            )
        for i, (a, n) in enumerate(zip(acts, net.layer_sizes)):
            # an array's own shape, without np.shape's dispatch cost
            shape = a.shape if isinstance(a, np.ndarray) else np.shape(a)
            if shape != (n,):
                raise ValueError(
                    f"expected acts[{i}] of length {n}, got shape {shape}: "
                    "acts come from another network"
                )
        if acts[0] is not x and not np.array_equal(acts[0], x):
            raise ValueError("acts[0] is not the input x: acts come from another input")
    k = layer.k
    ys = _as_floats(y, k)
    if adoption != _RAW_TARGETS and sigma is None:
        nrm = layer.normalizer
        if nrm is None:
            raise ValueError("layer has no normalizer attached")
        if nrm.k != k:
            raise ValueError(f"normalizer has {nrm.k} components, the layer {k} outputs")
        # the statistics update checks that y can be squared, the last
        # check, before it moves
        sigma, mu = nrm.update(y), nrm.mu
    elif sigma is not None and adoption == _RAW_TARGETS:
        sigma = np.array(_as_scale(sigma, k))
    if adoption == _COMPENSATE:
        layer.rescale_to(sigma, mu)
    elif adoption == _ADOPT_RAW:
        layer.set_scale_shift(sigma, mu)

    if acts is None:
        acts = net.forward_pass(x)
    h = acts[-1]
    W, b = layer.W, layer.b
    parts = zip((W @ h).tolist(), b.tolist(), ys)
    if adoption == _RAW_TARGETS:
        delta = np.array([z + b_i - y_i for z, b_i, y_i in parts])
        theta_seed = (delta if sigma is None else delta / sigma**2) @ W
    else:
        parts = zip(parts, layer.sigma.tolist(), layer.mu.tolist())
        delta = np.array([z + b_i - (y_i - m) / s for (z, b_i, y_i), s, m in parts])
        theta_seed = delta @ W
    # for two vectors ``.dot`` runs the routine that ``@`` runs, without
    # the matmul machinery's cost per call
    g_sq = 0.0
    if net.n_params:
        g_theta = net.backward(acts, theta_seed)
        g_sq = float(g_theta.dot(g_theta))
        net.apply_param_step(g_theta, alpha)
    d_sq = float(delta.dot(delta))
    grad_norm = math.sqrt(g_sq + d_sq * (1.0 + float(h.dot(h))))
    # one broadcast product, not one per row: where both factors are NaN,
    # numpy's broadcast loop keeps, for some shapes, the other one's NaN
    W -= alpha * (delta[:, None] * h)
    for i, d in enumerate(delta.tolist()):
        b[i] = b.item(i) - alpha * d

    if adoption != _RAW_TARGETS:
        error, scale, shift = delta, layer.sigma.copy(), layer.mu.copy()
    elif sigma is None:
        error, scale, shift = delta, None, None
    else:
        error, scale, shift = delta / sigma, sigma, None
    return TrainStepReport(error, 0.5 * d_sq, grad_norm, scale, shift)


def popart_sgd_update(
    net, layer: OutputLayer, x, y, sigma_new, mu_new, alpha: float
) -> TrainStepReport:
    """One output-preserving SGD step with an externally supplied new
    scale/shift (useful when the statistics live elsewhere).

    ``W`` and ``b`` are first rescaled so unnormalized outputs are
    unchanged, then SGD consumes the normalized error under the new
    scale/shift.
    """
    return _sgd_step(net, layer, x, y, alpha, _COMPENSATE, sigma_new, mu_new)


def popart_sgd_step(
    net, layer: OutputLayer, x, y, alpha: float, *, acts=None
) -> TrainStepReport:
    """One squared-loss SGD step with adaptive normalization and
    output-preserving rescale.

    Order matters: the statistics absorb the new target first, then ``W``
    and ``b`` are rescaled so outputs are unchanged, and only then does
    SGD consume the (bounded) normalized error.

    ``acts``: see the module docstring.
    """
    return _sgd_step(net, layer, x, y, alpha, _COMPENSATE, acts=acts)


def art_only_sgd_step(
    net, layer: OutputLayer, x, y, alpha: float, *, acts=None
) -> TrainStepReport:
    """Like :func:`popart_sgd_step` but without the compensating rescale:
    the new scale/shift is adopted directly, so unnormalized outputs for
    other inputs drift whenever the statistics move.

    ``acts``: see the module docstring.
    """
    return _sgd_step(net, layer, x, y, alpha, _ADOPT_RAW, acts=acts)


def plain_sgd_step(
    net, layer: OutputLayer, x, y, alpha: float, *, acts=None
) -> TrainStepReport:
    """Baseline squared-loss SGD on raw targets; no statistics anywhere.

    Equivalent to :func:`art_only_sgd_step` with the scale frozen at one
    and the shift at zero.

    ``acts``: see the module docstring.
    """
    return _sgd_step(net, layer, x, y, alpha, _RAW_TARGETS, acts=acts)


def normalized_sgd_step(
    net, layer: OutputLayer, x, y, sigma, alpha: float, *, acts=None
) -> TrainStepReport:
    """Scaled-update SGD: the top layer fits raw targets, while the
    lower-layer update is divided by the squared scale.

    ``sigma`` must come from the same statistics stream the adaptive
    variant would use; the layer's own scale/shift stay at identity.

    ``acts``: see the module docstring.
    """
    return _sgd_step(net, layer, x, y, alpha, _RAW_TARGETS, sigma, acts=acts)
