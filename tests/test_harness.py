import numpy as np
import pytest

from popart.binreg import (
    CI_ALPHAS,
    CI_BETAS,
    FULL_GRID,
    RESULTS_HEADER,
    BinRegStream,
    ExperimentConfig,
    _moving_average,
    aggregate,
    read_results_csv,
    run_grid,
    run_single,
    summarize,
    write_results_csv,
)
from popart.network import Mlp
from popart.schedules import constant
from popart.stats import Normalizer
from popart.training import OutputLayer, predict

# -- data stream -----------------------------------------------------------


def test_spike_exactly_every_thousandth_step():
    stream = BinRegStream(seed=0)
    for step in range(1, 2001):
        x, y = stream.sample()
        if step % 1000 == 0:
            assert y == 65535.0
            np.testing.assert_array_equal(x, np.ones(16))
        else:
            assert 0.0 <= y <= 1023.0
            # high 6 bits are always zero for normal samples
            np.testing.assert_array_equal(x[10:], np.zeros(6))


def test_binary_encoding_low_bit_first():
    x = BinRegStream.encode(5)
    expected = np.zeros(16)
    expected[0] = expected[2] = 1.0  # 5 = 101 in binary
    np.testing.assert_array_equal(x, expected)
    assert float(x @ (2.0 ** np.arange(16))) == 5.0


def test_encoding_matches_bit_loop():
    for value in [*range(BinRegStream.NORMAL_MAX + 1), BinRegStream.SPIKE_VALUE]:
        expected = np.array([(value >> i) & 1 for i in range(16)], dtype=float)
        np.testing.assert_array_equal(BinRegStream.encode(value), expected)


def test_samples_do_not_alias_each_other():
    stream = BinRegStream(seed=0)
    for _ in range(1000):
        x, y = stream.sample()
        x[...] = -1.0  # must not reach later samples
    for _ in range(1001):
        x, y = stream.sample()
        np.testing.assert_array_equal(x, BinRegStream.encode(int(y)))


def test_stream_targets_uniform_mean():
    stream = BinRegStream(seed=123)
    total = 0.0
    count = 0
    for _ in range(1_000_000):
        _, y = stream.sample()
        if y != 65535.0:
            total += y
            count += 1
    assert total / count == pytest.approx(511.5, abs=1.0)


def test_stream_deterministic():
    a = BinRegStream(seed=9)
    b = BinRegStream(seed=9)
    for _ in range(100):
        xa, ya = a.sample()
        xb, yb = b.sample()
        assert ya == yb
        np.testing.assert_array_equal(xa, xb)


# -- single runs -----------------------------------------------------------


# AUC and grad_norm.sum() of each method's run_single at seed 1000 over
# 1100 samples (one spike), at the benchmark's non-diverging cells.  Recorded
# before the flat parameter vector and the shared step core existed, so any
# change to the arithmetic of the per-sample hot path fails here.
GOLDEN_SINGLE = {
    "sgd": ((1e-5, 1e-2), 372897.990535293, 38949110.29975074),
    "art": ((1e-3, 1e-2), 427476.77616498736, 1108.1711958016353),
    "popart": ((1e-3, 1e-2), 438515.3817095713, 1528.7277523087814),
    "normalized_sgd": ((1e-3, 1e-2), 438515.3817095715, 536353.5752140011),
}


@pytest.mark.parametrize("method", sorted(GOLDEN_SINGLE))
def test_run_single_golden(method):
    (alpha, beta), auc, grad_norm_sum = GOLDEN_SINGLE[method]
    rec = run_single(method, alpha, beta, seed=1000, n_samples=1100)
    assert not rec.diverged
    assert rec.auc == pytest.approx(auc, rel=1e-12)
    assert float(rec.grad_norm.sum()) == pytest.approx(grad_norm_sum, rel=1e-12)


@pytest.mark.parametrize("method", sorted(GOLDEN_SINGLE))
def test_run_single_one_forward_pass_per_step(method, monkeypatch):
    # the test error and the step share one forward pass
    calls = []
    forward_pass = Mlp.forward_pass

    def counted(self, x):
        calls.append(1)
        return forward_pass(self, x)

    monkeypatch.setattr(Mlp, "forward_pass", counted)
    (alpha, beta), _, _ = GOLDEN_SINGLE[method]
    rec = run_single(method, alpha, beta, seed=1000, n_samples=300)
    assert not rec.diverged
    assert len(calls) == 300


def test_run_single_reproducible():
    a = run_single("popart", 1e-2, 0.1, seed=7, n_samples=300)
    b = run_single("popart", 1e-2, 0.1, seed=7, n_samples=300)
    np.testing.assert_array_equal(a.rmse, b.rmse)
    np.testing.assert_array_equal(a.grad_norm, b.grad_norm)
    assert a.auc == b.auc


def test_run_single_pre_update_semantics():
    # the error at step t is the prediction error before consuming sample
    # t, so a longer run must reproduce a shorter run's trace exactly
    short = run_single("popart", 1e-2, 0.1, seed=3, n_samples=100)
    long = run_single("popart", 1e-2, 0.1, seed=3, n_samples=150)
    np.testing.assert_array_equal(short.rmse, long.rmse[:100])


def test_run_single_first_error_matches_fresh_network():
    seed = 11
    rec = run_single("sgd", 1e-5, 0.1, seed=seed, n_samples=5)
    # rebuild the same initial state independently
    rng = np.random.default_rng([seed, 0x1217])
    net = Mlp([16, 10, 10, 10], rng=rng)
    layer = OutputLayer(1, 10, normalizer=Normalizer(k=1, schedule=constant(0.1)), rng=rng)
    x, y = BinRegStream(seed).sample()
    assert rec.rmse[0] == pytest.approx(abs(predict(net, layer, x)[0] - y), rel=1e-12)


def test_plain_sgd_alpha_one_diverges():
    rec = run_single("sgd", 1.0, 1e-4, seed=0, n_samples=200)
    assert rec.diverged
    assert rec.auc == np.inf


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        run_single("adam", 1e-3, 0.1, seed=0)


# -- grid ------------------------------------------------------------------


def test_grid_constants():
    assert len(FULL_GRID) == 11
    assert FULL_GRID[0] == pytest.approx(1e-5)
    assert FULL_GRID[-1] == pytest.approx(1.0)
    assert set(np.round(np.log10(CI_ALPHAS) * 2)) <= set(np.round(np.log10(FULL_GRID) * 2))
    assert set(np.round(np.log10(CI_BETAS) * 2)) <= set(np.round(np.log10(FULL_GRID) * 2))
    assert len(CI_ALPHAS) == 5 and len(CI_BETAS) == 5


def test_single_cell_grid_one_record():
    config = ExperimentConfig(
        methods=("popart",), alphas=(1e-2,), betas=(0.1,), n_samples=60, n_repetitions=1
    )
    records, summary = run_grid(config)
    assert len(records) == 1
    assert summary["popart"]["alpha"] == 1e-2
    assert summary["popart"]["beta"] == 0.1


def test_grid_completeness_and_pairing():
    config = ExperimentConfig(
        methods=("popart", "art"),
        alphas=(1e-3, 1e-2),
        betas=(0.1,),
        n_samples=40,
        n_repetitions=2,
        base_seed=500,
    )
    records, _ = run_grid(config)
    cells = {(r.method, r.alpha, r.beta, r.seed) for r in records}
    assert len(cells) == len(records) == 2 * 2 * 1 * 2
    # repetition i shares seed base+i across methods and cells
    assert {r.seed for r in records} == {500, 501}


def test_summarize_picks_min_median_auc():
    config = ExperimentConfig(
        methods=("popart",),
        alphas=(1e-5, 1e-2),
        betas=(0.1,),
        n_samples=200,
        n_repetitions=2,
    )
    records, summary = run_grid(config)
    by_cell = {}
    for r in records:
        by_cell.setdefault(r.alpha, []).append(r.auc)
    medians = {a: float(np.median(v)) for a, v in by_cell.items()}
    assert summary["popart"]["alpha"] == min(medians, key=medians.get)
    assert summary["popart"]["median_auc"] == pytest.approx(min(medians.values()))
    assert summarize(records) == summary


def test_profiles():
    ci = ExperimentConfig.profile("ci")
    assert ci.n_repetitions == 10 and len(ci.alphas) == 5
    full = ExperimentConfig.profile("full")
    assert full.n_repetitions == 50 and len(full.alphas) == 11
    with pytest.raises(ValueError):
        ExperimentConfig.profile("huge")


def test_with_overrides_rejects_unknown_keys():
    config = ExperimentConfig()
    with pytest.raises(KeyError):
        config.with_overrides({"n_sampels": 10})
    small = config.with_overrides({"n_samples": 10, "alphas": [1e-3]})
    assert small.n_samples == 10 and small.alphas == (1e-3,)


# -- aggregation -----------------------------------------------------------


def test_aggregate_identical_records_bands_coincide():
    trace = np.arange(20, dtype=float)
    bands = aggregate([trace, trace.copy(), trace.copy()], window=1)
    for p in (10, 50, 90):
        np.testing.assert_array_equal(bands[p], trace)


def test_aggregate_window_one_is_identity():
    trace = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    bands = aggregate([trace], percentiles=(50,), window=1)
    np.testing.assert_array_equal(bands[50], trace)


def test_aggregate_constant_trace():
    bands = aggregate([np.full(30, 7.0)], window=10)
    for p in (10, 50, 90):
        np.testing.assert_allclose(bands[p], 7.0)


def test_aggregate_trailing_window_oracle():
    trace = np.array([1.0, 2.0, 3.0, 4.0])
    bands = aggregate([trace], percentiles=(50,), window=2)
    np.testing.assert_allclose(bands[50], [1.0, 1.5, 2.5, 3.5])


def _loop_moving_average(x, window):
    """The trailing mean as a loop over the cumulative sum."""
    if window == 1:
        return x.copy()
    csum = np.concatenate([[0.0], np.cumsum(x)])
    out = np.empty(len(x))
    for i in range(len(x)):
        lo = max(0, i + 1 - window)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


@pytest.mark.parametrize("window", [1, 3, 10])
@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 500])
def test_moving_average_equals_loop_formula(window, n):
    x = np.random.default_rng(n).lognormal(sigma=3.0, size=n)
    np.testing.assert_array_equal(_moving_average(x, window), _loop_moving_average(x, window))


def test_aggregate_errors():
    with pytest.raises(ValueError):
        aggregate(np.zeros((0, 5)))
    with pytest.raises(ValueError):
        aggregate([np.ones(3)], window=0)


# -- CSV -------------------------------------------------------------------


def test_results_csv_round_trip(tmp_path):
    rec = run_single("popart", 1e-2, 0.1, seed=2, n_samples=25)
    path = tmp_path / "results.csv"
    write_results_csv(str(path), [rec])
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(RESULTS_HEADER)
    assert "\r" not in text
    rows = read_results_csv(str(path))
    assert len(rows) == 25
    assert rows[0]["method"] == "popart"
    assert int(rows[0]["step"]) == 1
    # repr round trip keeps float values exact
    assert float(rows[7]["rmse"]) == rec.rmse[7]


def test_read_results_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("method,alpha\n")
    with pytest.raises(ValueError):
        read_results_csv(str(path))
