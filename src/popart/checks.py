"""Seeded property checks behind the ``verify`` subcommand.

Each check exercises one of the core guarantees at a fixed size and seed:
the normalized-target bound, exact output preservation under rescaling,
the equivalence of the two SGD formulations, the erf coverage/spread
correspondence, the percentile and minibatch-extreme fixed points, the
bias-corrected initialization independence, the batch/incremental
statistics equivalence, and the Jacobian against finite differences.

A check takes no arguments: ``popart verify`` runs each one as the
acceptance test suite gates on it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .network import Mlp
from .schedules import bias_corrected, constant, inverse_t
from .stats import (
    ExtremeTracker,
    Normalizer,
    PercentileTracker,
    batch_stats,
    coverage_from_spread,
    spread_from_coverage,
)
from .training import (
    OutputLayer,
    normalized_sgd_step,
    popart_sgd_update,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str):
    """Make a check that returns ``(passed, detail)`` return its timed
    :class:`CheckResult`, called ``name``."""
    def wrap(check):
        @functools.wraps(check)
        def run() -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = check()
            return CheckResult(name, bool(passed), detail, time.perf_counter() - t0)
        return run
    return wrap


@_check("target bound")
def check_target_bound() -> tuple[bool, str]:
    """Update-then-normalize never exceeds ``s * sqrt((1-beta)/beta)``.

    Runs ``n_streams`` independent scalar streams as one wide normalizer;
    streams mix lognormal scales with occasional huge spikes.
    """
    n_streams, stream_len, spike, seed = 1_000_000, 8, 1e12, 7
    betas, spreads = (1e-4, 1e-2, 0.5), (1.0, 0.5)
    rng = np.random.default_rng(seed)
    worst_slack = math.inf
    for beta in betas:
        for s in spreads:
            nrm = Normalizer(k=n_streams, spread=s, schedule=constant(beta))
            bound = s * math.sqrt((1.0 - beta) / beta) + 1e-9
            for _ in range(stream_len):
                y = rng.normal(size=n_streams) * 10.0 ** rng.uniform(0, 3, n_streams)
                mask = rng.random(n_streams) < 0.05
                y[mask] *= spike
                nrm.update(y)
                z = np.abs(nrm.normalize(y))
                worst_slack = min(worst_slack, bound - float(z.max()))
                if worst_slack < 0:
                    return False, f"violated by {-worst_slack:.3e} at beta={beta}, s={s}"
    return True, f"min slack {worst_slack:.3e}"


@_check("output preservation")
def check_output_preservation() -> tuple[bool, str]:
    """Rescaling drifts unnormalized outputs by at most 1e-10 relative."""
    n_trials, seed = 10_000, 11
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 8))
        layer = OutputLayer(k, m, rng=rng)
        layer.b = rng.normal(size=k)
        layer.sigma = 10.0 ** rng.uniform(-3, 3, k)
        layer.mu = rng.normal(size=k) * 10.0 ** rng.uniform(-2, 4)
        h = rng.normal(size=m)
        before = layer.unnormalized_output(h)
        layer.rescale_to(10.0 ** rng.uniform(-3, 3, k), rng.normal(size=k) * 100)
        after = layer.unnormalized_output(h)
        drift = float(np.max(np.abs(after - before) / (1.0 + np.abs(before))))
        worst = max(worst, drift)
    return worst <= 1e-10, f"max relative drift {worst:.3e}"


@_check("sgd equivalence")
def check_sgd_equivalence() -> tuple[bool, str]:
    """The adaptive-rescale and scaled-update SGD variants trace the same
    lower-layer parameters and unnormalized outputs from identical inits,
    within 1e-8 of ``1 + |value|``: the same up to rounding.
    """
    # rounding drift grows with the steps taken: 1e-8 is the gate for this many
    n_steps, n_probes, seed = 1000, 20, 13
    rng = np.random.default_rng(seed)
    k, m = 2, 6
    net1 = Mlp([4, 8, m], rng=rng)
    net2 = net1.copy()
    w0 = rng.normal(size=(k, m)) * 0.3
    b0 = rng.normal(size=k) * 0.1
    layer1 = OutputLayer(k, m, W=w0, b=b0)
    layer2 = OutputLayer(k, m, W=w0, b=b0)
    probes = rng.normal(size=(n_probes, 4))
    alpha = 1e-3
    worst_theta = 0.0
    for _ in range(n_steps):
        x = rng.normal(size=4)
        y = rng.normal(size=k) * 3.0
        sigma = 10.0 ** rng.uniform(-0.5, 0.5, k)
        mu = rng.normal(size=k)
        popart_sgd_update(net1, layer1, x, y, sigma, mu, alpha)
        normalized_sgd_step(net2, layer2, x, y, sigma, alpha)
        p1, p2 = net1.get_params(), net2.get_params()
        rel = float(np.max(np.abs(p1 - p2) / (1.0 + np.abs(p2))))
        worst_theta = max(worst_theta, rel)
    worst_out = 0.0
    for x in probes:
        o1 = layer1.unnormalized_output(net1.forward(x))
        o2 = layer2.normalized_output(net2.forward(x))
        rel = float(np.max(np.abs(o1 - o2) / (1.0 + np.abs(o2))))
        worst_out = max(worst_out, rel)
    ok = worst_theta <= 1e-8 and worst_out <= 1e-8
    return ok, f"max theta diff {worst_theta:.3e}, max output diff {worst_out:.3e}"


@_check("erf correspondence")
def check_erf_correspondence() -> tuple[bool, str]:
    """Fraction of normalized normal targets inside [-1, 1] matches
    ``erf(1/(sqrt(2) s))``, and the spread/coverage pair inverts.
    """
    # the in-band fraction's standard error is at most 5e-4, a tenth of 0.005
    n_samples, seed = 1_000_000, 17
    rng = np.random.default_rng(seed)
    y = rng.normal(3.0, 2.5, n_samples)
    msgs = []
    ok = True
    for s, tol in ((1.0, 0.005), (spread_from_coverage(0.95), 0.005)):
        mu, sigma = batch_stats(y, spread=s)
        frac = float(np.mean(np.abs((y - mu) / sigma) <= 1.0))
        expect = coverage_from_spread(s)
        ok &= abs(frac - expect) <= tol
        msgs.append(f"s={s:.3f}: in-band {frac:.4f} vs erf {expect:.4f}")
    s95 = spread_from_coverage(0.95)
    s99 = spread_from_coverage(0.99)
    ok &= abs(s95 - 0.5) <= 0.02 and abs(s99 - 0.4) <= 0.02
    ok &= abs(coverage_from_spread(1.0) - 0.683) <= 0.005
    roundtrip = max(
        abs(coverage_from_spread(spread_from_coverage(p)) - p)
        for p in (0.05, 0.5, 0.683, 0.95, 0.99)
    )
    ok &= roundtrip <= 1e-6
    msgs.append(f"s(0.95)={s95:.4f}, s(0.99)={s99:.4f}, roundtrip {roundtrip:.2e}")
    return ok, "; ".join(msgs)


@_check("percentile fixed point")
def check_percentile_fixed_point() -> tuple[bool, str]:
    """Percentile tracker exceedance converges to ``(1-p)/2``."""
    # the tracker converges as it steps: 0.01 is the gate after this many
    n_samples, p, seed = 1_000_000, 0.8, 19
    rng = np.random.default_rng(seed)
    stream = rng.random(n_samples)
    tracker = PercentileTracker(p)
    for y in stream:
        tracker.update(y)
    above = float(np.mean(stream > tracker.y_max))
    below = float(np.mean(stream < tracker.y_min))
    tail = (1.0 - p) / 2.0
    ok = abs(above - tail) <= 0.01 and abs(below - tail) <= 0.01
    return ok, f"above {above:.4f}, below {below:.4f}, target {tail:.4f}"


@_check("minibatch extremes")
def check_minibatch_extremes() -> tuple[bool, str]:
    """Minibatch extreme tracking converges to ``a + B/(B+1)(b-a)``."""
    # the tracker converges as it steps: 0.01 is the gate after this many
    n_batches, batch_size, seed = 200_000, 4, 23
    rng = np.random.default_rng(seed)
    batches = rng.random((n_batches, batch_size))
    tracker = ExtremeTracker(batch_size)
    for row in batches:
        tracker.update(row)
    b = batch_size
    hi_expect = b / (b + 1.0)
    lo_expect = 1.0 / (b + 1.0)
    ok = abs(tracker.y_max - hi_expect) <= 0.01 and abs(tracker.y_min - lo_expect) <= 0.01
    return ok, (
        f"y_max {tracker.y_max:.4f} vs {hi_expect:.4f}, "
        f"y_min {tracker.y_min:.4f} vs {lo_expect:.4f}"
    )


@_check("init independence")
def check_init_independence() -> tuple[bool, str]:
    """Bias-corrected averages ignore initialization and match the
    closed-form correction of a constant-step average.
    """
    n_steps, beta, seed = 1000, 0.1, 29
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n_steps) * 5.0
    inits = (0.0, 1e6)
    runs = []
    for init in inits:
        avg = init
        sched = bias_corrected(beta)
        trace = []
        for z in data:
            bt = sched.step()
            avg = (1.0 - bt) * avg + bt * z
            trace.append(avg)
        runs.append(np.array(trace))
    diff = float(np.max(np.abs(runs[0] - runs[1]) / (1.0 + np.abs(runs[0]))))
    # constant-step run from a nonzero init, corrected in closed form
    mu0 = 123.0
    avg = mu0
    worst_closed = 0.0
    for t, z in enumerate(data, start=1):
        avg = (1 - beta) * avg + beta * z
        decay = (1 - beta) ** t
        closed = (avg - decay * mu0) / (1 - decay)
        rel = abs(closed - runs[0][t - 1]) / (1.0 + abs(closed))
        worst_closed = max(worst_closed, rel)
    ok = diff <= 1e-12 and worst_closed <= 1e-12
    return ok, f"max init diff {diff:.2e}, max closed-form diff {worst_closed:.2e}"


@_check("batch equivalence")
def check_batch_equivalence() -> tuple[bool, str]:
    """The 1/t schedule reproduces exact batch mean and second moment."""
    # rounding drift grows with the stream: 1e-12 is the gate for this long
    stream_len, seed = 10_000, 31
    rng = np.random.default_rng(seed)
    data = rng.normal(size=stream_len) * 100.0 + 17.0
    # negligible variance floor: the clamp is a safety device outside the
    # batch recursion being verified (it always fires at t=1, where the
    # one-sample variance is zero)
    nrm = Normalizer(k=1, schedule=inverse_t(), epsilon=1e-300)
    worst = 0.0
    csum = 0.0
    csum2 = 0.0
    for t, y in enumerate(data, start=1):
        nrm.update(y)
        csum += y
        csum2 += y * y
        mu_exact = csum / t
        nu_exact = csum2 / t
        worst = max(
            worst,
            abs(nrm.mu[0] - mu_exact) / (1.0 + abs(mu_exact)),
            abs(nrm.nu[0] - nu_exact) / (1.0 + abs(nu_exact)),
        )
    return worst <= 1e-12, f"max relative diff {worst:.2e}"


@_check("gradient check")
def check_gradients() -> tuple[bool, str]:
    """Reverse-mode Jacobian against central finite differences."""
    n_cases, seed = 100, 37
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 5)))]
        net = Mlp(sizes, rng=rng)
        x = rng.normal(size=sizes[0])
        jac = net.jacobian(x)
        theta = net.get_params()
        eps = 1e-5
        fd = np.empty_like(jac)
        for i in range(net.n_params):
            d = np.zeros_like(theta)
            d[i] = eps
            net.set_params(theta + d)
            hi = net.forward(x)
            net.set_params(theta - d)
            lo = net.forward(x)
            fd[i] = (hi - lo) / (2 * eps)
        net.set_params(theta)
        scale = np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
    return worst < 1e-5, f"max relative error {worst:.2e}"


ALL_CHECKS = (
    check_target_bound,
    check_output_preservation,
    check_sgd_equivalence,
    check_erf_correspondence,
    check_percentile_fixed_point,
    check_minibatch_extremes,
    check_init_independence,
    check_batch_equivalence,
    check_gradients,
)
