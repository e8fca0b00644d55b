"""Stateful test of a Normalizer and the OutputLayer it calibrates.

Rules mix statistics updates, rescales and invalid calls.  After every
call: ``sigma`` is finite and positive, a rescale preserved the
unnormalized outputs on fixed probes, and a call that raised changed
nothing.  The machine runs with one output, which the normalizer updates
on Python floats, and with two, which it updates as arrays.  A second
machine adds a network under the layer, popart and art-only steps and
rescales by hand to extreme scales; each step that goes through leaves the
normalizer's ``mu`` and ``var`` at the ``next_state`` of its target, and
its schedule one step on, and each rescale that goes through meets
``rescale_to``'s stated float bound, checked in exact arithmetic.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from popart.network import Mlp, stacked_product
from popart.schedules import bias_corrected, constant
from popart.stats import MAX_TARGET, Normalizer
from popart.training import OutputLayer, art_only_sgd_step, popart_sgd_step

M = 3
# fixed feature vectors the unnormalized outputs are compared on
PROBES = np.array([[0.5, -1.0, 0.25], [1.0, 1.0, 1.0], [-0.3, 0.7, -0.9]])
# a rescale rounds each output to a few ulps of the magnitudes it sums
PRESERVE_RTOL = 1e-12
U = Fraction(1, 2**53)
SMALLEST_NORMAL = Fraction(2) ** -1022

finite_target = st.floats(-MAX_TARGET, MAX_TARGET)
invalid_target = st.sampled_from(
    [math.nan, math.inf, -math.inf, MAX_TARGET * (1 + 2**-50), -1e155, 1e200]
)
valid_scale = st.floats(1e-2, 1e100)
valid_shift = st.floats(-1e100, 1e100)
invalid_scale = st.sampled_from([0.0, -0.0, -1.0, -1e-300, math.nan, math.inf])
invalid_shift = st.sampled_from([math.nan, math.inf, -math.inf])
# beyond a rescale to or from the normalizer's next scale at some target
extreme_scale = st.sampled_from([1e-300, 1e300])
network_input = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
# a step's target: often one that takes the scale to either end of its range
step_target = st.one_of(st.sampled_from([0.0, 1e30, -MAX_TARGET]), finite_target)


def _layer_snapshot(layer):
    """The layer's outputs on the probes, then copies of its W, b, sigma and
    mu."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = layer.unnormalized_output(PROBES)
    return out, *(a.copy() for a in (layer.W, layer.b, layer.sigma, layer.mu))


def _assert_within_float_bound(old, layer):
    """Check the rescale from ``old``, a :func:`_layer_snapshot`, to the
    layer as it is now against ``rescale_to``'s stated bound, in rational
    arithmetic as the acceptance property does: on each probe ``h``, each
    output moved by at most ``(2m + 9) u E``, with ``E = sigma_old*(|W||h| +
    |b|) + |mu_old| + |mu_new|``.  A rescale the bound does not cover is
    skipped: one where anything overflowed, or where a product or quotient
    of the rescale or of the outputs is nonzero and below ``2**-1022``, as a
    subnormal ratio is."""
    before, W, b, sigma, mu = old
    W2, b2, sigma2, mu2 = layer.W, layer.b, layer.sigma, layer.mu
    with np.errstate(over="ignore", invalid="ignore"):
        after = layer.unnormalized_output(PROBES)
        # W h + b before and after, which the outputs multiply by sigma
        sums = [stacked_product(w, PROBES) + c for w, c in ((W, b), (W2, b2))]
    if not all(np.isfinite(a).all() for a in (before, after, W2, b2)):
        return
    exact = []  # every product and quotient the rescale and the outputs round
    for i in range(len(b)):
        s_old, s, b_old, mu_old = sigma.item(i), sigma2.item(i), b.item(i), mu.item(i)
        exact += [Fraction(s_old) / Fraction(s), Fraction(s_old) * Fraction(b_old)]
        exact += [Fraction(w) * Fraction(s_old / s) for w in W[i].tolist()]
        exact.append(Fraction(s_old * b_old + mu_old - mu2.item(i)) / Fraction(s))
        for w, c, scale in ((W, sums[0], s_old), (W2, sums[1], s)):
            for h, t in zip(PROBES.tolist(), c[:, i].tolist()):
                exact += [Fraction(x) * Fraction(y) for x, y in zip(w[i].tolist(), h)]
                exact.append(Fraction(scale) * Fraction(t))
    if any(0 < abs(x) < SMALLEST_NORMAL for x in exact):
        return
    m = W.shape[1]
    for p, h in enumerate(PROBES.tolist()):
        for i in range(len(b)):
            size = sum(abs(Fraction(w) * Fraction(x)) for w, x in zip(W[i].tolist(), h))
            E = Fraction(sigma.item(i)) * (size + abs(Fraction(b.item(i))))
            E += abs(Fraction(mu.item(i))) + abs(Fraction(mu2.item(i)))
            moved = abs(Fraction(after[p, i]) - Fraction(before[p, i]))
            assert moved <= (2 * m + 9) * U * E, (p, i, float(moved), float(E))


BUILD = dict(
    beta=st.floats(1e-3, 1.0),
    corrected=st.booleans(),
    spread=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)


class NormalizerLayerMachine(RuleBasedStateMachine):
    K = 2  # outputs

    @initialize(**BUILD)
    def build(self, beta, corrected, spread, seed):
        schedule = bias_corrected(beta) if corrected else constant(beta)
        self.nrm = Normalizer(k=self.K, spread=spread, schedule=schedule)
        self.layer = OutputLayer(self.K, M, normalizer=self.nrm, rng=seed)

    def _state(self):
        nrm, layer = self.nrm, self.layer
        arrays = (nrm.mu, nrm.var, layer.W, layer.b, layer.sigma, layer.mu)
        return nrm.schedule.t, [a.tobytes() for a in arrays]

    def _one_bad(self, good, bad, first=True):
        """K components, all ``good`` except the first or last, ``bad``."""
        values = [good] * self.K
        values[0 if first else -1] = bad
        return values

    def _assert_raises_and_changes_nothing(self, call, *args):
        before = self._state()
        with pytest.raises(ValueError):
            call(*args)
        assert self._state() == before

    def _rescale_preserving_outputs(self, sigma, mu):
        layer = self.layer
        out = layer.unnormalized_output(PROBES)
        # the magnitudes the rescaled output is summed from
        size = (np.abs(PROBES) @ np.abs(layer.W).T + np.abs(layer.b)) * layer.sigma
        size += np.abs(layer.mu) + np.abs(np.asarray(mu, dtype=float))
        layer.rescale_to(sigma, mu)
        err = np.abs(layer.unnormalized_output(PROBES) - out)
        assert (err <= PRESERVE_RTOL * size).all(), (err, size)

    @rule(y=st.lists(finite_target, min_size=2, max_size=2))
    def update_and_rescale(self, y):
        sigma = self.nrm.update(y[: self.K])
        np.testing.assert_array_equal(sigma, self.nrm.sigma)
        self._rescale_preserving_outputs(self.nrm.sigma, self.nrm.mu)

    @rule(good=finite_target, bad=invalid_target, first=st.booleans())
    def update_rejects_invalid_target(self, good, bad, first):
        self._assert_raises_and_changes_nothing(self.nrm.update, self._one_bad(good, bad, first))

    @rule(
        sigma=st.lists(valid_scale, min_size=2, max_size=2),
        mu=st.lists(valid_shift, min_size=2, max_size=2),
    )
    def rescale_to_given(self, sigma, mu):
        self._rescale_preserving_outputs(sigma[: self.K], mu[: self.K])

    @rule(bad=invalid_scale, good=valid_scale, mu=valid_shift)
    def rescale_rejects_invalid_scale(self, bad, good, mu):
        self._assert_raises_and_changes_nothing(
            self.layer.rescale_to, self._one_bad(good, bad, first=False), [mu] * self.K
        )

    @rule(sigma=valid_scale, good=valid_shift, bad=invalid_shift)
    def rescale_rejects_invalid_shift(self, sigma, good, bad):
        self._assert_raises_and_changes_nothing(
            self.layer.rescale_to, [sigma] * self.K, self._one_bad(good, bad)
        )

    @invariant()
    def sigma_finite_and_positive(self):
        for sigma in (self.nrm.sigma, self.layer.sigma):
            assert all(0.0 < s < math.inf for s in sigma.tolist())


class OneOutputMachine(NormalizerLayerMachine):
    K = 1


class StepMachine(NormalizerLayerMachine):
    """The machine above with a network under the layer, popart and
    art-only steps and rescales by hand to extreme scales, after which a
    step must raise and change nothing, or go through.  A step that goes
    through writes the statistics ``next_state`` gave for its target just
    before it, byte for byte, and moves ``schedule.t`` by exactly one.

    A step can take ``W`` where a later rescale overflows: at ``beta = 1``
    its normalized error is the shift's jump over the floored scale, 1e105
    at a target of 1e103, and ``W`` grows by that.  So once a step or an
    extreme scale went through, a rescale here is not checked against the
    relative tolerance above; each one that goes through, here and by hand,
    is checked against ``rescale_to``'s float bound wherever that bound
    covers it.
    """

    @initialize(
        **BUILD,
        # 1e-300 puts the least scale near 1e-150, so that a scale of 1e300
        # is beyond a rescale to it
        epsilon=st.sampled_from([1e-4, 1e-300]),
    )
    def build(self, beta, corrected, spread, seed, epsilon):
        schedule = bias_corrected(beta) if corrected else constant(beta)
        self.nrm = Normalizer(k=self.K, spread=spread, epsilon=epsilon, schedule=schedule)
        self.layer = OutputLayer(self.K, M, normalizer=self.nrm, rng=seed)
        self.net = Mlp([2, M], rng=seed)
        self.stepped = False

    def _state(self):
        t, arrays = super()._state()
        return t, arrays + [self.net.get_params().tobytes()]

    def _rescale_preserving_outputs(self, sigma, mu):
        old = _layer_snapshot(self.layer)
        if not self.stepped:
            super()._rescale_preserving_outputs(sigma, mu)
            _assert_within_float_bound(old, self.layer)
            return
        before = self._state()
        with np.errstate(over="ignore", invalid="ignore"):  # W may overflow
            try:
                self.layer.rescale_to(sigma, mu)
            except ValueError:
                # from a scale set by hand that no finite ratio leaves
                assert self._state() == before
                return
        _assert_within_float_bound(old, self.layer)

    def _step(self, step, x, y):
        nrm, target = self.nrm, y[: self.K]
        before = self._state()
        mu, var, _ = nrm.next_state(target)
        t = nrm.schedule.t
        # W may overflow, which the step's loss and gradient norm show
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                step(self.net, self.layer, self.net.forward_pass(x), target, 1e-3)
            except ValueError as exc:
                # a layer scale set by hand that no finite, positive ratio
                # takes to the next scale: the rescale raises, and the
                # normalizer, whose next statistics the step computed
                # without a write, has not moved either
                assert str(exc).startswith("sigma ") and " the rescale from " in str(exc)
                assert self._state() == before
                return
        self.stepped = True
        # the statistics the step computed once and update wrote
        assert nrm.mu.tobytes() == np.array(mu, ndmin=1).tobytes()
        assert nrm.var.tobytes() == np.array(var, ndmin=1).tobytes()
        assert nrm.schedule.t == t + 1

    @rule(x=network_input, y=st.lists(step_target, min_size=2, max_size=2))
    def popart_step(self, x, y):
        self._step(popart_sgd_step, x, y)

    @rule(x=network_input, y=st.lists(step_target, min_size=2, max_size=2))
    def art_only_step(self, x, y):
        # adopts the next scale as it is, with no rescale to raise
        self._step(art_only_sgd_step, x, y)

    @rule(
        scale=extreme_scale,
        last=st.booleans(),
        x=network_input,
        y=st.lists(step_target, min_size=2, max_size=2),
    )
    def rescale_to_an_extreme_scale_and_step(self, scale, last, x, y):
        # by hand, keeping the shift; W may overflow
        sigma = self.layer.sigma.copy()
        sigma[-1 if last else 0] = scale
        before, old = self._state(), _layer_snapshot(self.layer)
        with np.errstate(over="ignore"):
            try:
                self.layer.rescale_to(sigma, self.layer.mu.copy())
            except ValueError:
                # the ratio from 1e300 to 1e-300 is inf
                assert self._state() == before
                return
        _assert_within_float_bound(old, self.layer)
        self.stepped = True
        self.popart_step(x, y)


class OneOutputStepMachine(StepMachine):
    K = 1


MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)
for machine in (NormalizerLayerMachine, OneOutputMachine, StepMachine, OneOutputStepMachine):
    machine.TestCase.settings = MACHINE_SETTINGS
TestNormalizerLayerMachine = NormalizerLayerMachine.TestCase
TestOneOutputMachine = OneOutputMachine.TestCase
TestStepMachine = StepMachine.TestCase
TestOneOutputStepMachine = OneOutputStepMachine.TestCase
