"""Stateful test of a Normalizer and the OutputLayer it calibrates.

Rules mix statistics updates, rescales and invalid calls.  After every
call: ``sigma`` is finite and positive, a rescale preserved the
unnormalized outputs on fixed probes, and a call that raised changed
nothing.  The machine runs with one output, which the normalizer updates
on Python floats, and with two, which it updates as arrays.  A second
machine adds a network under the layer, popart steps and rescales by hand
to extreme scales.
"""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from popart.network import Mlp
from popart.schedules import bias_corrected, constant
from popart.stats import MAX_TARGET, Normalizer
from popart.training import OutputLayer, popart_sgd_step

M = 3
# fixed feature vectors the unnormalized outputs are compared on
PROBES = np.array([[0.5, -1.0, 0.25], [1.0, 1.0, 1.0], [-0.3, 0.7, -0.9]])
# a rescale rounds each output to a few ulps of the magnitudes it sums
PRESERVE_RTOL = 1e-12

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
    """The machine above with a network under the layer, popart steps and
    rescales by hand to extreme scales, after which a step must raise and
    change nothing, or go through.

    A step can take ``W`` where a later rescale overflows: at ``beta = 1``
    its normalized error is the shift's jump over the floored scale, 1e105
    at a target of 1e103, and ``W`` grows by that.  So once a step or an
    extreme scale went through, a rescale here is not checked for
    preservation; the machine above checks it on every run.
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
        if not self.stepped:
            super()._rescale_preserving_outputs(sigma, mu)
            return
        before = self._state()
        with np.errstate(over="ignore", invalid="ignore"):  # W may overflow
            try:
                self.layer.rescale_to(sigma, mu)
            except ValueError:
                # from a scale set by hand that no finite ratio leaves
                assert self._state() == before

    @rule(x=network_input, y=st.lists(step_target, min_size=2, max_size=2))
    def popart_step(self, x, y):
        before = self._state()
        # W may overflow, which the step's loss and gradient norm show
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                popart_sgd_step(self.net, self.layer, self.net.forward_pass(x), y[: self.K], 1e-3)
            except ValueError as exc:
                # a layer scale set by hand that no finite, positive ratio
                # takes to the next scale: the rescale raises, and the
                # normalizer, whose next statistics the step computed
                # without a write, has not moved either
                assert str(exc).startswith("sigma ") and " the rescale from " in str(exc)
                assert self._state() == before
                return
        self.stepped = True

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
        before = self._state()
        with np.errstate(over="ignore"):
            try:
                self.layer.rescale_to(sigma, self.layer.mu.copy())
            except ValueError:
                # the ratio from 1e300 to 1e-300 is inf
                assert self._state() == before
                return
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
