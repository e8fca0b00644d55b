import json
import math
import os
import re

import numpy as np
import pytest

from popart.binreg import (
    CI_ALPHAS,
    CI_BETAS,
    FULL_GRID,
    RESULTS_HEADER,
    BinRegStream,
    ExperimentConfig,
    RunRecord,
    _moving_average,
    aggregate,
    atomic_open,
    read_results_csv,
    run_grid,
    run_single,
    summarize,
    write_results_csv,
    write_summary_json,
)
from popart.network import Mlp
from popart.plotting import write_charts
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


def _bit_loop(value):
    """Low-bit-first binary encoding of ``value``, one bit at a time."""
    return np.array([(value >> i) & 1 for i in range(16)], dtype=float)


def test_binary_encoding_low_bit_first():
    x = BinRegStream._CODES[5]
    expected = np.zeros(16)
    expected[0] = expected[2] = 1.0  # 5 = 101 in binary
    np.testing.assert_array_equal(x, expected)
    assert float(x @ (2.0 ** np.arange(16))) == 5.0


def test_encoding_matches_bit_loop():
    codes = BinRegStream._CODES
    assert codes.shape == (BinRegStream.NORMAL_MAX + 1, 16)
    for value, code in enumerate(codes):
        np.testing.assert_array_equal(code, _bit_loop(value))
    np.testing.assert_array_equal(BinRegStream._SPIKE_CODE, _bit_loop(BinRegStream.SPIKE_VALUE))


def test_samples_do_not_alias_each_other():
    stream = BinRegStream(seed=0)
    for _ in range(1000):
        x, y = stream.sample()
        x[...] = -1.0  # must not reach later samples
    for _ in range(1001):
        x, y = stream.sample()
        np.testing.assert_array_equal(x, _bit_loop(int(y)))


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


@pytest.mark.parametrize("seed", [0, 9, 1000, 2**31 - 1])
def test_stream_draws_what_one_draw_per_sample_gives(seed):
    # the stream draws its values in blocks; they must be the values one
    # scalar draw per normal sample gives, across blocks and spikes
    rng = np.random.default_rng([seed, 0xB17])
    stream = BinRegStream(seed)
    xs = []
    for step in range(1, 2501):
        x, y = stream.sample()
        if step % BinRegStream.SPIKE_PERIOD:
            assert y == float(int(rng.integers(0, 1024)))
        else:
            assert y == 65535.0
        np.testing.assert_array_equal(x, _bit_loop(int(y)))
        xs.append(x)
    # every x is a fresh array of its own
    assert len({id(x) for x in xs}) == len(xs)
    assert not any(np.shares_memory(x, BinRegStream._CODES) for x in xs)


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


def test_summarize_names_no_cell_when_every_cell_diverged():
    steps = np.arange(1.0, 11.0)
    records = [
        RunRecord("sgd", alpha, 0.1, seed, np.full(10, np.inf), steps)
        for alpha in (0.01, 1.0)
        for seed in (0, 1)
    ]
    records.append(RunRecord("art", 0.01, 0.1, 0, steps, steps))
    assert summarize(records) == {
        "sgd": {"alpha": None, "beta": None, "median_auc": math.inf},
        "art": {"alpha": 0.01, "beta": 0.1, "median_auc": 55.0},
    }


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
    bands = aggregate([trace], window=1)
    np.testing.assert_array_equal(bands[50], trace)


def test_aggregate_constant_trace():
    bands = aggregate([np.full(30, 7.0)], window=10)
    for p in (10, 50, 90):
        np.testing.assert_allclose(bands[p], 7.0)


def test_aggregate_trailing_window_oracle():
    trace = np.array([1.0, 2.0, 3.0, 4.0])
    bands = aggregate([trace], window=2)
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


# sgd at this cell over 1100 samples (one spike), repetitions 1000..1004:
# one run finishes and four diverge at the spike, two with a NaN gradient norm
MIXED_CELL = ExperimentConfig(
    methods=("sgd",), alphas=(3e-5,), betas=(0.01,), n_samples=1100, n_repetitions=5
)


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.method, a.alpha, a.beta, a.seed) == (b.method, b.alpha, b.beta, b.seed)
        assert type(a.alpha) is float and type(a.beta) is float and type(a.seed) is int
        for x, y in ((a.rmse, b.rmse), (a.grad_norm, b.grad_norm)):
            assert x.dtype == y.dtype == np.float64
            # every bit but a NaN's sign, which text does not keep
            np.testing.assert_array_equal(x, y)
            finite_or_inf = ~np.isnan(y)
            assert x[finite_or_inf].tobytes() == y[finite_or_inf].tobytes()
        assert a.diverged == b.diverged
        assert a.auc == b.auc


def test_results_csv_round_trip(tmp_path):
    records = [
        run_single("popart", 1e-2, 0.1, seed=2, n_samples=25),
        run_single("art", 1e-3, 0.01, seed=3, n_samples=25),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(str(path), records)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(RESULTS_HEADER)
    assert lines[1].startswith("popart,0.01,0.1,2,1,")
    assert len(lines) == 1 + 50
    assert "\r" not in text
    assert not os.path.exists(str(path) + ".tmp")
    _assert_same_records(read_results_csv(str(path)), records)


def test_results_csv_round_trip_with_diverged_runs(tmp_path):
    records, summary = run_grid(MIXED_CELL)
    assert [r.diverged for r in records].count(True) == 4
    assert any(np.isnan(r.grad_norm).any() for r in records)
    path = tmp_path / "results.csv"
    write_results_csv(str(path), records)
    back = read_results_csv(str(path))
    _assert_same_records(back, records)
    assert summarize(back) == summary


def test_read_results_csv_groups_runs_in_file_order(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(
        ",".join(RESULTS_HEADER) + "\n"
        "sgd,0.1,0.2,7,1,1.0,2.0\n"
        "art,0.1,0.2,7,1,3.0,4.0\n"
        "sgd,0.1,0.2,7,2,inf,nan\n"
        "art,0.1,0.2,7,2,5.0,6.0\n"
    )
    sgd, art = read_results_csv(str(path))
    assert (sgd.method, sgd.alpha, sgd.beta, sgd.seed) == ("sgd", 0.1, 0.2, 7)
    np.testing.assert_array_equal(sgd.rmse, [1.0, np.inf])
    np.testing.assert_array_equal(sgd.grad_norm, [2.0, np.nan])
    assert sgd.diverged and not art.diverged
    np.testing.assert_array_equal(art.rmse, [3.0, 5.0])


def test_read_results_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("method,alpha\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: expected the header"):
        read_results_csv(str(path))
    # the same columns in another order are as wrong
    path.write_text(",".join(reversed(RESULTS_HEADER)) + "\n")
    with pytest.raises(ValueError, match="line 1: expected the header"):
        read_results_csv(str(path))


_HEADER = ",".join(RESULTS_HEADER) + "\n"
_ROW = "popart,0.01,0.1,2,{step},1.5,2.5\n"
MALFORMED_CSV = {
    "empty": ("", 1),
    "header_twice": (_HEADER + _HEADER, 2),
    "short_row": (_HEADER + "popart,0.01,0.1,2,1,1.5\n", 2),
    "long_row": (_HEADER + "popart,0.01,0.1,2,1,1.5,2.5,9\n", 2),
    "non_numeric": (_HEADER + "popart,0.01,0.1,2,1,abc,2.5\n", 2),
    # the method names the chart file, so a path in its place must not pass
    "unknown_method": (_HEADER + "../x,0.01,0.1,2,1,1.5,2.5\n", 2),
    "non_integer_seed": (_HEADER + "popart,0.01,0.1,2.0,1,1.5,2.5\n", 2),
    "step_gap": (_HEADER + _ROW.format(step=1) + _ROW.format(step=3), 3),
    "step_not_from_one": (_HEADER + _ROW.format(step=2), 2),
    "run_repeated": (_HEADER + _ROW.format(step=1) + _ROW.format(step=1), 3),
    # a file cut at a row boundary: the cell's second run ends early
    "run_cut_short": (
        _HEADER + _ROW.format(step=1) + _ROW.format(step=2) + "popart,0.01,0.1,3,1,1.5,2.5\n",
        4,
    ),
    # every run binreg writes has n_samples rows, whatever its cell: a cut
    # in a one-run cell shows against the longest run
    "one_run_cell_cut_short": (
        _HEADER + _ROW.format(step=1) + _ROW.format(step=2) + "popart,0.001,0.1,2,1,1.5,2.5\n",
        4,
    ),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_CSV))
def test_read_results_csv_rejects_malformed_naming_the_line(tmp_path, kind):
    text, line = MALFORMED_CSV[kind]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: "):
        read_results_csv(str(path))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_json_is_strict_json(tmp_path):
    # a method whose every cell diverged has an infinite median AUC
    summary = {
        "sgd": {"alpha": None, "beta": None, "median_auc": math.inf},
        "popart": {"alpha": 0.01, "beta": 0.1, "median_auc": 23563.9},
    }
    path = tmp_path / "summary.json"
    write_summary_json(str(path), summary)
    written = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert written["sgd"] == {"alpha": None, "beta": None, "median_auc": None}
    assert written["popart"] == summary["popart"]
    assert summary["sgd"]["median_auc"] == math.inf


def test_run_record_diverged_is_derived_from_the_arrays():
    finite = np.array([1.0, 2.0])
    assert not RunRecord("sgd", 0.1, 0.1, 0, finite, finite).diverged
    for bad in (np.inf, -np.inf, np.nan):
        rec = RunRecord("sgd", 0.1, 0.1, 0, finite, np.array([1.0, bad]))
        assert rec.diverged and rec.auc == np.inf
        rec = RunRecord("sgd", 0.1, 0.1, 0, np.array([bad, 1.0]), finite)
        assert rec.diverged and rec.auc == np.inf


def test_run_grid_workers_match_serial():
    config = ExperimentConfig(
        methods=("sgd", "popart"),
        alphas=(3e-5, 1e-2),
        betas=(0.01,),
        n_samples=1010,
        n_repetitions=3,
    )
    runs = {}
    for workers in (1, 2):
        calls = []
        records, summary = run_grid(
            config, workers=workers, progress=lambda i, n: calls.append((i, n))
        )
        n = len(records)
        assert calls == [(i, n) for i in range(1, n + 1)]
        runs[workers] = records, summary
    (serial, serial_summary), (pooled, pooled_summary) = runs[1], runs[2]
    assert pooled_summary == serial_summary
    assert len(serial) == 2 * 2 * 1 * 3
    for a, b in zip(pooled, serial):
        assert (a.method, a.alpha, a.beta, a.seed) == (b.method, b.alpha, b.beta, b.seed)
        assert a.rmse.tobytes() == b.rmse.tobytes()
        assert a.grad_norm.tobytes() == b.grad_norm.tobytes()


def test_write_charts_skips_diverged_runs_and_infinite_medians(tmp_path):
    steps = np.arange(1.0, 31.0)
    finished = [
        RunRecord("art", 0.1, 0.1, seed, steps * scale, steps)
        for seed, scale in enumerate((1.0, 2.0))
    ]
    diverged = RunRecord("art", 0.1, 0.1, 9, np.full(30, np.inf), steps)
    # sgd's only cell has an infinite median: no chart
    sgd = [RunRecord("sgd", 0.1, 0.1, seed, np.full(30, np.inf), steps) for seed in (0, 1)]
    records = finished + [diverged] + sgd
    summary = summarize(records)
    assert np.isfinite(summary["art"]["median_auc"])
    (tmp_path / "all").mkdir()
    (tmp_path / "finished").mkdir()
    write_charts(str(tmp_path / "all"), records, summary, window=3)
    write_charts(str(tmp_path / "finished"), finished, summary, window=3)
    assert os.listdir(tmp_path / "all") == ["art.svg"]
    assert (tmp_path / "all" / "art.svg").read_bytes() == (
        tmp_path / "finished" / "art.svg"
    ).read_bytes()


def test_atomic_open_failure_leaves_nothing_behind(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("before\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert path.read_text() == "before\n"
    fresh = tmp_path / "new.txt"
    with pytest.raises(RuntimeError):
        with atomic_open(str(fresh)) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
    with atomic_open(str(path)) as fh:
        fh.write("after\n")
    assert path.read_text() == "after\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
