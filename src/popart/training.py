"""Output-preserving rescaling and the SGD variants built on it.

The :class:`OutputLayer` is the final linear map ``W h + b`` together
with the scale/shift pair ``(sigma, mu)`` it is currently calibrated to,
so the unnormalized prediction is ``sigma * (W h + b) + mu``.  When the
statistics move, :meth:`OutputLayer.rescale_to` compensates ``W`` and
``b`` so the unnormalized outputs are unchanged pointwise.  The layer's
output and :func:`predict` also take a stack of inputs of shape
``(B, n)``, one per row, and give each row exactly what that input alone
gives; the SGD steps take one input at a time.  :meth:`OutputLayer.stack`
stacks the parameters of ``R`` layers, as :meth:`Mlp.stack` does those of
``R`` networks, so that one call gives the unnormalized outputs of all of
them, one feature row each.

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
Every input is read and checked by :mod:`popart.values`.

Each product takes the cheaper numpy route that gives the bytes of ``@``
(see :func:`popart.network.product`).  ``W h`` contracts ``m`` entries and
the lower layers' seed ``delta W`` contracts ``k``; each runs ``.dot``
where that count is at least 2 and ``@`` where it is 1, as ``delta W`` is
in the sweep and the agent (``k = 1``).  A layer picks its two routes
when it is built.  Outputs for a stack of features, through one layer or
a stack of layers, go through :func:`popart.network.stacked_product`.
The three dot products behind the gradient norm, ``g.g``,
``delta.delta`` and ``h.h``, run ``.dot``, the routine ``@`` runs for two
vectors.  The network's backward pass reuses its gradient buffer (see
:mod:`popart.network`); ``W``'s own update stays one broadcast product.

A step takes ``acts``, the activations ``net.forward_pass(x)`` of its
input on the current parameters, where a caller may have read its test
error, and checks only that they have one entry per layer, each as wide
as that layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .network import Mlp, product, stacked_product
from .stats import MAX_TARGET, Normalizer
from .values import MAX, TINY, as_finite_array, as_float_array, as_floats, check_setting, count


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
    it consumes.  ``W`` and ``b``, when given, are copied; they must have
    shapes ``(k, m)`` and ``(k,)`` and finite entries.  Without ``W``, it
    is drawn uniformly in ``[-1/sqrt(m), 1/sqrt(m)]`` from ``rng``: a
    ``numpy.random.Generator``, which the draw advances, or a seed for
    ``numpy.random.default_rng`` (None for fresh entropy).  ``sigma``
    starts at ones and ``mu`` at zeros, matching a fresh identity
    normalization.

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
        rng=None,
    ):
        check_setting("k", k, lambda n: count(n) >= 1)
        check_setting("m", m, lambda n: count(n) >= 1)
        self.k = int(k)
        self.m = int(m)
        # b is read first, so that a bad one leaves rng undrawn
        self.b = np.zeros(k) if b is None else as_finite_array(b, (self.k,), "b")
        if W is None:
            bound = 1.0 / np.sqrt(m)
            W = np.random.default_rng(rng).uniform(-bound, bound, size=(k, m))
        self.W = as_finite_array(W, (self.k, self.m), "W")
        self.sigma = np.ones(k)
        self.mu = np.zeros(k)
        self.normalizer = normalizer
        # the routes of W @ h and of delta @ W (see network.product)
        self._matvec, self._vecmat = product(self.m), product(self.k)

    @staticmethod
    def stack(layers) -> "OutputLayer":
        """One layer over the parameters of ``layers``, all of one shape.

        ``W``, ``b``, ``sigma`` and ``mu`` of the members become the rows
        of arrays with a leading run axis, and each member is rebound onto
        its rows, which its steps and rescales then move in place.  Given
        features of shape ``(R, m)``, row ``r`` for member ``r``, its
        :meth:`unnormalized_output` gives row ``r`` exactly what member
        ``r`` gives for its features; features of any other shape raise
        ``ValueError``.  The stack has no normalizer and gives unnormalized
        outputs only; steps and rescales go to its members.
        """
        layers = list(layers)
        k, m = layers[0].k, layers[0].m
        if any((layer.k, layer.m) != (k, m) for layer in layers):
            raise ValueError("stacked output layers must all have the same k and m")
        stacked = _LayerStack.__new__(_LayerStack)
        stacked.k, stacked.m, stacked.normalizer = k, m, None
        for name in ("W", "b", "sigma", "mu"):
            rows = np.stack([getattr(layer, name) for layer in layers])
            setattr(stacked, name, rows)
            for layer, row in zip(layers, rows):
                setattr(layer, name, row)
        return stacked

    def unnormalized_output(self, h) -> np.ndarray:
        """``sigma * (W h + b) + mu``, row by row for a stack."""
        h = as_float_array(h)
        if h.ndim > 1:
            return self.sigma * (stacked_product(self.W, h) + self.b) + self.mu
        out = self._matvec(self.W, h)
        b, sigma, mu = self.b, self.sigma, self.mu
        for i in range(self.k):
            out[i] = sigma.item(i) * (out.item(i) + b.item(i)) + mu.item(i)
        return out

    def rescale_to(self, sigma_new, mu_new) -> None:
        """Adopt a new scale/shift without changing unnormalized outputs.

        A ratio ``sigma_old / sigma_new`` of 0 or not finite, which would
        take a row of ``W`` to 0 or inf, raises ``ValueError`` naming
        ``sigma`` before anything changes.  A finite ratio can still
        overflow an entry of ``W`` or the new ``b``; that is not checked.
        In a step such an overflow shows as a non-finite loss or gradient
        norm, at which a binreg run records its divergence and the agent's
        training stops with ``FloatingPointError``; a raise here would
        change how a diverging run is recorded.

        Output preservation is limited by cancellation: the new ``b``
        carries ``(mu_old - mu_new) / sigma_new``, and ``W h + b`` then loses
        what is below that term's rounding.  A shift far outside the
        outputs erases them without a raise:
        ``OutputLayer(1, 3, rng=0).rescale_to([1.0], [1e308])`` sets ``b``
        to -1e308 and takes the output at features ``(0.5, -1, 0.25)`` from
        0.2124 to 0.0.
        """
        sigma_new = as_floats(sigma_new, self.k, TINY, MAX, "sigma")
        mu_new = as_floats(mu_new, self.k, -MAX, MAX, "mu")
        W, b, sigma, mu = self.W, self.b, self.sigma, self.mu
        for i, s in enumerate(sigma_new):
            if not 0.0 < sigma.item(i) / s < math.inf:
                raise ValueError(
                    f"sigma {s!r} at component {i}: the rescale from {sigma.item(i)!r} "
                    f"would multiply W by {sigma.item(i) / s!r}"
                )
        for i in range(self.k):
            s_old, s, m = sigma.item(i), sigma_new[i], mu_new[i]
            W[i] *= s_old / s
            b[i] = (s_old * b.item(i) + mu.item(i) - m) / s
            sigma[i], mu[i] = s, m


class _LayerStack(OutputLayer):
    """What :meth:`OutputLayer.stack` returns: unnormalized outputs only."""

    def unnormalized_output(self, h) -> np.ndarray:
        """One row per member of features of shape ``(R, m)``; any other
        shape raises here, naming both shapes."""
        h = as_float_array(h)
        rows = (len(self.W), self.m)
        if h.shape != rows:
            raise ValueError(
                f"a stack of {rows[0]} output layers takes features of shape {rows}, "
                f"one row per layer, got shape {h.shape}"
            )
        return super().unnormalized_output(h)

    def _members_only(self, *args, **kwargs):
        raise TypeError(
            "a stack of output layers gives unnormalized outputs only; call its members"
        )

    rescale_to = _members_only


def predict(net: Mlp, layer: OutputLayer, x) -> np.ndarray:
    """Unnormalized prediction ``sigma * (W h(x) + b) + mu``.

    For a stack of inputs of shape ``(B, n_in)`` it returns one row per
    input, each equal to the prediction for that input alone.  No command
    calls it, since each already holds its forward pass; it stays as the
    README's one-call prediction, and ``perfbench/tracer.py`` times it by
    name.
    """
    return layer.unnormalized_output(net.forward_pass(x)[-1])


# How a step takes on its scale/shift before the gradient step.
_COMPENSATE = "compensate"  # rescale W, b so unnormalized outputs stay put
_ADOPT_RAW = "adopt raw"  # adopt as is, so unnormalized outputs move
_RAW_TARGETS = "raw targets"  # keep the identity and fit raw targets
# the smallest scale whose square is a normal double, not 0
_MIN_SEED_SCALE = math.sqrt(sys.float_info.min)


def _sgd_step(
    net, layer: OutputLayer, acts, y, alpha, adoption, sigma=None, mu=None
) -> TrainStepReport:
    """The one squared-loss SGD step behind every public variant.

    ``acts`` is ``net.forward_pass(x)`` on the current parameters; the
    rescale and the statistics update move only the output layer, so the
    step learns from it what a pass of its own would give.  With
    ``_COMPENSATE`` or ``_ADOPT_RAW`` the new scale/shift is ``(sigma,
    mu)``, or, if ``sigma`` is None, the layer normalizer's statistics
    after it absorbs ``y``: :meth:`Normalizer.next_state` computes them,
    the layer adopts them, and :meth:`Normalizer.update` then writes them.
    With ``_RAW_TARGETS`` a given ``sigma`` only divides the lower-layer
    seed by ``sigma**2``, which must be a positive finite double.  Every
    input is checked before anything is mutated: a target the normalizer
    absorbs by :meth:`Normalizer.next_state`, and the ratio from the
    layer's scale to the new one by :meth:`OutputLayer.rescale_to`, the
    first thing that moves.
    """
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
                "acts come from another network or input"
            )
    # read before anything moves: the features take methods of an array
    h = as_float_array(acts[-1])
    k = layer.k
    ys = as_floats(y, k, -MAX, MAX, "target")
    if absorb := adoption != _RAW_TARGETS and sigma is None:
        nrm = layer.normalizer
        if nrm is None:
            raise ValueError("layer has no normalizer attached")
        if nrm.k != k:
            raise ValueError(f"normalizer has {nrm.k} components, the layer {k} outputs")
        # the statistics after the update, which checks that y can be
        # squared, computed before anything moves
        mu, _, sigma = nrm.next_state(y)
    elif sigma is not None and adoption == _RAW_TARGETS:
        sigma = np.array(as_floats(sigma, k, _MIN_SEED_SCALE, MAX_TARGET, "sigma"))
    if adoption == _COMPENSATE:
        # its ratio check, the last check, raises before it writes
        layer.rescale_to(sigma, mu)
    elif adoption == _ADOPT_RAW:
        # the normalizer keeps its scale and shift in range
        layer.sigma[...], layer.mu[...] = sigma, mu
    if absorb:
        # writes the statistics computed above; it cannot raise now
        nrm.update(y)

    W, b, scale, shift = layer.W, layer.b, layer.sigma, layer.mu
    raw = adoption == _RAW_TARGETS
    # the error, one output at a time, and with it the bias update, which
    # reads nothing the rest of the step moves
    delta = layer._matvec(W, h)
    for i in range(k):
        y_i = ys[i] if raw else (ys[i] - shift.item(i)) / scale.item(i)
        b_i = b.item(i)
        d = delta.item(i) + b_i - y_i
        delta[i], b[i] = d, b_i - alpha * d
    if raw and sigma is not None:
        theta_seed = layer._vecmat(delta / sigma**2, W)
    else:
        theta_seed = layer._vecmat(delta, W)
    g_theta = net.backward(acts, theta_seed)
    g_sq = float(g_theta.dot(g_theta))
    net.apply_param_step(g_theta, alpha)
    d_sq = float(delta.dot(delta))
    grad_norm = math.sqrt(g_sq + d_sq * (1.0 + float(h.dot(h))))
    # one broadcast product, not one per row: where both factors are NaN,
    # numpy's broadcast loop keeps, for some shapes, the other one's NaN
    W -= alpha * (delta[:, None] * h)

    if not raw:
        error, scale, shift = delta, scale.copy(), shift.copy()
    elif sigma is None:
        error, scale, shift = delta, None, None
    else:
        error, scale, shift = delta / sigma, sigma, None
    return TrainStepReport(error, 0.5 * d_sq, grad_norm, scale, shift)


def popart_sgd_update(
    net, layer: OutputLayer, acts, y, sigma_new, mu_new, alpha: float
) -> TrainStepReport:
    """One output-preserving SGD step with an externally supplied new
    scale/shift (useful when the statistics live elsewhere).

    ``W`` and ``b`` are first rescaled so unnormalized outputs are
    unchanged, then SGD consumes the normalized error under the new
    scale/shift.  ``acts`` is ``net.forward_pass(x)``, as for every step.
    """
    return _sgd_step(net, layer, acts, y, alpha, _COMPENSATE, sigma_new, mu_new)


def popart_sgd_step(net, layer: OutputLayer, acts, y, alpha: float) -> TrainStepReport:
    """One squared-loss SGD step with adaptive normalization and
    output-preserving rescale, on the forward pass ``acts`` of the input.

    Order matters: the statistics absorb the new target first, then ``W``
    and ``b`` are rescaled so outputs are unchanged, and only then does
    SGD consume the (bounded) normalized error.  The step computes the
    statistics with :meth:`Normalizer.next_state`, rescales to them, and
    only then has :meth:`Normalizer.update` write them.  So a layer scale,
    which a caller may have set by hand, that no finite, positive ratio
    takes to the next scale raises the rescale's ``ValueError`` naming
    both scales, and nothing has moved; every other layer scale is taken.
    """
    return _sgd_step(net, layer, acts, y, alpha, _COMPENSATE)


def art_only_sgd_step(net, layer: OutputLayer, acts, y, alpha: float) -> TrainStepReport:
    """Like :func:`popart_sgd_step` but without the compensating rescale:
    the new scale/shift is adopted directly, so unnormalized outputs for
    other inputs drift whenever the statistics move.
    """
    return _sgd_step(net, layer, acts, y, alpha, _ADOPT_RAW)


def plain_sgd_step(net, layer: OutputLayer, acts, y, alpha: float) -> TrainStepReport:
    """Baseline squared-loss SGD on raw targets; no statistics anywhere.

    Equivalent to :func:`art_only_sgd_step` with the scale frozen at one
    and the shift at zero.
    """
    return _sgd_step(net, layer, acts, y, alpha, _RAW_TARGETS)


def normalized_sgd_step(
    net, layer: OutputLayer, acts, y, sigma, alpha: float
) -> TrainStepReport:
    """Scaled-update SGD: the top layer fits raw targets, while the
    lower-layer update is divided by the squared scale.

    ``sigma`` must come from the same statistics stream the adaptive
    variant would use; the layer's own scale/shift stay at identity.  Each
    component must lie in ``[sqrt(sys.float_info.min), MAX_TARGET]``, about
    ``[1.49e-154, 1.34e154]``, where its square is a positive finite double;
    any other raises ``ValueError`` naming ``sigma`` before anything moves.
    """
    return _sgd_step(net, layer, acts, y, alpha, _RAW_TARGETS, sigma)
