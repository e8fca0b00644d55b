"""Acceptance suite: every release gate in one place.

Each test exercises one gate at its stated tolerance and prints a single
pass/fail line (written past pytest's capture so the verdicts are always
visible in the run log).
"""

import contextlib
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart import checks
from popart.binreg import ExperimentConfig, run_grid
from popart.rl import ChainMdp, DoubleQAgent, train, value_iteration
from popart.schedules import bias_corrected, constant, harmonic, inverse_t
from popart.stats import MAX_TARGET, Normalizer

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # verdict lines must reach the real terminal, past pytest's capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, title: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ctx = _CAPSYS.disabled() if _CAPSYS is not None else contextlib.nullcontext()
    with ctx:
        sys.stdout.write(f"ACCEPTANCE {num:2d} [{status}] {title}: {detail}\n")
        sys.stdout.flush()


def _assert_check(num: int, title: str, result, budget: float | None = None) -> None:
    detail = f"{result.detail} ({result.seconds:.1f}s)"
    ok = result.passed and (budget is None or result.seconds < budget)
    _verdict(num, title, ok, detail)
    assert result.passed, detail
    if budget is not None:
        assert result.seconds < budget, f"runtime {result.seconds:.1f}s over {budget}s"


def test_criterion_01_target_bound():
    _assert_check(
        1, "update-then-normalize bound", checks.check_target_bound(), budget=30.0
    )


# Gate 1's streams are wide.  The bound must hold as well on near-constant
# streams far from 0, where a variance taken as nu - mu**2 cancels, and in
# floats up to the rounding of mu, as the README states it.


def _float_bound(nrm, beta, y, mu_before):
    """``spread*sqrt((1-beta)/beta)``, widened by the rounding of ``d``,
    ``beta*d`` and ``mu`` in one update."""
    exact = nrm.spread * math.sqrt((1.0 - beta) / beta)
    return exact * (1 + 2**-49) + 2**-50 * max(abs(y), abs(mu_before)) / nrm.sigma[0]


def _assert_bound_over(nrm, twin, ys):
    """Feed ``ys`` to ``nrm``; ``twin`` is a fresh copy of its schedule."""
    for y in ys:
        mu_before = nrm.mu[0]
        nrm.update([y] * nrm.k)
        beta = twin.step()
        assert np.isfinite(nrm.var).all() and np.isfinite(nrm.sigma).all()
        z = np.abs(nrm.normalize([y] * nrm.k))
        assert (z <= _float_bound(nrm, beta, y, mu_before)).all(), (y, z, beta)


def test_target_bound_holds_where_the_spread_is_small_next_to_the_targets():
    # nu - mu**2 cancelled to 0 here, and the floor put sigma at 0.01:
    # the second target normalized to 6,553,600 where the bound is 0.995
    nrm = Normalizer(k=1, schedule=bias_corrected(0.01))
    nrm.update(1e20)
    nrm.update(1e20 + 2**17)
    twin = bias_corrected(0.01)
    twin.step()
    beta = twin.step()
    exact = math.sqrt((1 - beta) / beta)
    z = abs(nrm.normalize(1e20 + 2**17)[0])
    assert exact < z <= _float_bound(nrm, beta, 1e20 + 2**17, 1e20)
    assert z == pytest.approx(1.0000126, abs=1e-7)


SCHEDULE_KINDS = {
    "constant": constant,
    "bias_corrected": bias_corrected,
    "inverse_t": lambda beta: inverse_t(),
    "harmonic": lambda beta: harmonic(),
}


@st.composite
def near_constant_streams(draw):
    """Targets a few ulps to a few parts in 1e9 around one centre of any
    size up to MAX_TARGET, with now and then any target up to it."""
    centre = draw(st.floats(-MAX_TARGET, MAX_TARGET))
    scale = abs(centre) * draw(st.sampled_from([2.0**-52, 2.0**-40, 1e-9]))
    near = st.integers(-64, 64).map(lambda j: centre + j * scale)
    far = st.floats(-MAX_TARGET, MAX_TARGET)
    ys = draw(st.lists(st.one_of(near, near, near, far), min_size=1, max_size=40))
    return [min(max(y, -MAX_TARGET), MAX_TARGET) for y in ys]


@settings(deadline=None, max_examples=300)
@given(
    ys=near_constant_streams(),
    kind=st.sampled_from(sorted(SCHEDULE_KINDS)),
    beta=st.floats(1e-4, 1.0),
    spread=st.sampled_from([0.5, 1.0, 2.0]),
    k=st.sampled_from([1, 2]),
)
def test_target_bound_holds_in_floats_on_near_constant_streams(ys, kind, beta, spread, k):
    # at k = 1 the update runs on Python floats, at k = 2 on arrays
    make = SCHEDULE_KINDS[kind]
    nrm = Normalizer(k=k, spread=spread, schedule=make(beta))
    _assert_bound_over(nrm, make(beta), ys)


@pytest.mark.parametrize("beta", [0.25, 0.375, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2])
def test_alternating_largest_targets_keep_the_variance_finite(beta, k):
    # each product of the variance update stays within MAX at +-MAX_TARGET
    nrm = Normalizer(k=k, schedule=constant(beta))
    _assert_bound_over(nrm, constant(beta), [MAX_TARGET, -MAX_TARGET] * 100)
    assert (nrm.var <= MAX_TARGET**2).all()


def test_criterion_02_output_preservation():
    _assert_check(
        2, "rescale preserves outputs", checks.check_output_preservation(), budget=10.0
    )


def test_criterion_03_optimizer_equivalence():
    _assert_check(
        3, "dual-formulation equivalence", checks.check_sgd_equivalence(), budget=10.0
    )


def test_criterion_04_batch_equivalence():
    _assert_check(4, "1/t schedule = batch moments", checks.check_batch_equivalence())


def test_criterion_05_init_independence():
    _assert_check(
        5, "bias-corrected init independence", checks.check_init_independence()
    )


def test_criterion_06_erf_correspondence():
    _assert_check(6, "coverage/spread correspondence", checks.check_erf_correspondence())


def test_criterion_07_percentile_fixed_point():
    _assert_check(
        7, "percentile tracker fixed point", checks.check_percentile_fixed_point()
    )


def test_criterion_08_minibatch_extremes():
    _assert_check(8, "minibatch extreme limits", checks.check_minibatch_extremes())


def test_criterion_09_binary_regression_orderings():
    workers = max(1, int(os.environ.get("POPART_WORKERS", os.cpu_count() or 1)))
    t0 = time.perf_counter()
    config = ExperimentConfig.profile("ci")
    _, summary = run_grid(config, workers=workers)
    seconds = time.perf_counter() - t0
    popart = summary["popart"]["median_auc"]
    art = summary["art"]["median_auc"]
    sgd = summary["sgd"]["median_auc"]
    ok = (
        popart < art
        and popart < sgd
        and summary["popart"]["beta"] > summary["art"]["beta"]
        and seconds < 15 * 60
    )
    detail = (
        f"median AUC popart={popart:.3g} art={art:.3g} sgd={sgd:.3g}; "
        f"best beta popart={summary['popart']['beta']:.3g} "
        f"art={summary['art']['beta']:.3g} "
        f"({seconds:.0f}s, {workers} worker(s))"
    )
    _verdict(9, "regression sweep orderings", ok, detail)
    assert popart < art, detail
    assert popart < sgd, detail
    assert summary["popart"]["beta"] > summary["art"]["beta"], detail
    assert seconds < 15 * 60, detail


def test_criterion_10_gradient_check():
    _assert_check(10, "Jacobian vs finite differences", checks.check_gradients())


def test_criterion_11_rl_value_accuracy_and_scale_robustness():
    details = []
    ok = True
    for reward in (1.0, 1000.0, 10**6):
        mdp = ChainMdp(terminal_reward=reward)
        agent = DoubleQAgent(mdp, seed=0)  # identical config at every scale
        train(agent, max_steps=50_000, rel_tol=0.05)
        q_star = value_iteration(mdp)
        err = float(np.max(np.abs(agent.q_table() - q_star) / np.abs(q_star)))
        details.append(f"reward={reward:g}: err={err:.3f} @ {agent.step_count} steps")
        ok &= err <= 0.05 and agent.step_count <= 50_000
    detail = "; ".join(details)
    _verdict(11, "chain values within 5% at all reward scales", ok, detail)
    assert ok, detail


def test_criterion_12_large_scale_results_out_of_scope():
    # the large-scale game benchmarks are explicitly not reproducible at
    # this scale; nothing in the package asserts or claims those numbers
    _verdict(
        12,
        "large-scale benchmarks out of scope",
        True,
        "no criterion references them by design",
    )
