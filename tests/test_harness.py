import ast
import csv
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import popart
from popart import binreg, values
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
from popart.rl import ChainMdp, DoubleQAgent, train
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
# sha256 of the same runs' rmse.tobytes() + grad_norm.tobytes(), recorded
# before run_single checked its settings by ExperimentConfig's rules
GOLDEN_SINGLE_SHA256 = {
    "art": "2e5bfc9081531254966f9a5425f626f1321de474e42981ae7629497e33407713",
    "normalized_sgd": "c13326e79e1697d759c1af0b78971c62df720af3fc47afd3e61f198c1b2b3943",
    "popart": "18509b4f163fd87b2b847486c67f92baa5aeeff22f5eace10d5361bcd70222a5",
    "sgd": "d0bc93ce4e762aec298a4484675161a5ef49003895b6cc75c056ea4245deb0d9",
}


@pytest.mark.parametrize("method", sorted(GOLDEN_SINGLE))
def test_run_single_golden(method):
    (alpha, beta), auc, grad_norm_sum = GOLDEN_SINGLE[method]
    rec = run_single(method, alpha, beta, seed=1000, n_samples=1100)
    assert not rec.diverged
    assert rec.auc == pytest.approx(auc, rel=1e-12)
    assert float(rec.grad_norm.sum()) == pytest.approx(grad_norm_sum, rel=1e-12)
    digest = hashlib.sha256(rec.rmse.tobytes() + rec.grad_norm.tobytes()).hexdigest()
    assert digest == GOLDEN_SINGLE_SHA256[method]


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


@pytest.mark.parametrize("method", sorted(GOLDEN_SINGLE))
def test_run_single_computes_the_next_statistics_once_per_step(method, monkeypatch):
    # a popart or art step computes the statistics with next_state and
    # hands them to update, which writes them; normalized_sgd's update
    # computes them itself; plain SGD has none.  Computing them twice a
    # step was waste
    calls = []
    next_state = Normalizer.next_state

    def counted(self, y):
        calls.append(1)
        return next_state(self, y)

    monkeypatch.setattr(Normalizer, "next_state", counted)
    (alpha, beta), _, _ = GOLDEN_SINGLE[method]
    rec = run_single(method, alpha, beta, seed=1000, n_samples=300)
    assert not rec.diverged
    assert len(calls) == (0 if method == "sgd" else 300)


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
    with pytest.raises(ValueError, match=r"^invalid method: 'adam'$"):
        run_single("adam", 1e-3, 0.1, seed=0)


# Before run_single checked these by ExperimentConfig's rules, alpha -1e-3
# ran gradient ascent, nan and inf ran to a diverged record, seed True ran as
# seed 1, each beta raised "invalid base_beta", seed -5 and n_samples -1
# raised numpy's messages, seed 1.5 and n_samples 2.5 a TypeError, and each
# hidden "invalid layer_sizes".
BAD_RUN_SETTINGS = [
    ("alpha", -1e-3),
    ("alpha", math.nan),
    ("alpha", math.inf),
    ("beta", 0),
    ("beta", 2.0),
    ("beta", True),
    ("seed", -5),
    ("seed", 1.5),
    ("seed", True),
    ("n_samples", -1),
    ("n_samples", 2.5),
    ("hidden", ()),
    ("hidden", (0,)),
    ("method", "bogus"),
]


@pytest.mark.parametrize(
    "name, value", BAD_RUN_SETTINGS, ids=[f"{name}={value!r}" for name, value in BAD_RUN_SETTINGS]
)
def test_run_single_names_a_bad_setting_before_any_work(name, value, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the settings were checked")

    for built in ("BinRegStream", "Mlp", "Normalizer", "OutputLayer", "constant"):
        monkeypatch.setattr(binreg, built, no_work)
    settings = dict(method="popart", alpha=1e-2, beta=0.1, seed=0, n_samples=50, hidden=(4,))
    settings[name] = value
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid {name}: {value!r}')}$"):
        run_single(**settings)


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


def test_read_results_csv_names_a_bad_method_by_the_run_rule(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(MALFORMED_CSV["unknown_method"][0])
    expected = f"{path}, line 2: invalid method: '../x'"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
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


def _divergence(rec: RunRecord) -> tuple:
    """The step a run diverged at and why: ``"loss"`` if the error recorded
    there is finite (the step's loss or gradient was not), ``"prediction"``
    if it is not (the prediction the step started from was not)."""
    i = rec.diverged_at
    if i is None:
        return None, None
    return i, "loss" if math.isfinite(rec.rmse[i]) else "prediction"


def test_divergence_step_and_cause_are_derived_from_the_arrays():
    finite = np.array([1.0, 2.0, 3.0])
    rec = RunRecord("sgd", 0.1, 0.1, 0, finite, finite)
    assert _divergence(rec) == (None, None)
    for bad in (np.inf, -np.inf, np.nan):
        rec = RunRecord("sgd", 0.1, 0.1, 0, finite, np.array([1.0, bad, np.inf]))
        assert _divergence(rec) == (1, "loss")
        rec = RunRecord("sgd", 0.1, 0.1, 0, np.array([1.0, bad, np.inf]), np.array([1.0, bad, 1.0]))
        assert _divergence(rec) == (1, "prediction")
        rec = RunRecord("sgd", 0.1, 0.1, 0, np.array([bad, 1.0, 1.0]), finite)
        assert _divergence(rec) == (0, "prediction")


def test_diverging_sgd_run_names_its_step_and_cause():
    # plain SGD at (3e-5, 0.01) lasts to the spike at step 1000, then its
    # loss overflows; run_single and a run_grid record agree, and the
    # popart run beside it does not diverge
    single = run_single("sgd", 3e-5, 0.01, seed=1000, n_samples=1100)
    config = ExperimentConfig(
        methods=("sgd", "popart"), alphas=(3e-5,), betas=(0.01,), n_samples=1100,
        n_repetitions=1,
    )
    records, _ = run_grid(config)
    by_method = {rec.method: rec for rec in records}
    assert len(records) == len(by_method) == 2
    grid_sgd, grid_popart = by_method["sgd"], by_method["popart"]
    assert grid_sgd.seed == single.seed
    for rec in (single, grid_sgd):
        i, cause = _divergence(rec)
        assert 1000 <= i < 1100 and cause == "loss"
        assert np.isfinite(rec.rmse[: i + 1]).all() and np.isfinite(rec.grad_norm[:i]).all()
        assert not np.isfinite(rec.grad_norm[i])
    assert single.diverged_at == grid_sgd.diverged_at
    assert _divergence(grid_popart) == (None, None)


def test_run_grid_returns_records_sorted_and_reports_them_in_that_order(monkeypatch):
    # the grid lists its methods, alphas and betas out of order; its records
    # come back sorted by method, alpha, beta and seed, and progress(i, n)
    # comes once the first i of them are done
    config = ExperimentConfig(
        methods=("sgd", "popart", "art"), alphas=(1e-2, 1e-5), betas=(0.1, 0.01), n_samples=20,
        n_repetitions=2, base_seed=7,
    )
    finished = []
    run_lockstep = binreg._run_lockstep

    def recorded(jobs):
        records = run_lockstep(jobs)
        finished.extend((r.method, r.alpha, r.beta, r.seed) for r in records)
        return records

    monkeypatch.setattr(binreg, "_run_lockstep", recorded)
    calls = []
    records, _ = run_grid(config, progress=lambda i, n: calls.append((i, n, set(finished))))
    keys = [(r.method, r.alpha, r.beta, r.seed) for r in records]
    assert len(set(keys)) == 3 * 2 * 2 * 2
    assert keys == sorted(keys)
    assert [(i, n) for i, n, _ in calls] == [(i, len(keys)) for i in range(1, len(keys) + 1)]
    for i, _, done in calls:
        assert set(keys[:i]) <= done, i


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


@pytest.mark.parametrize("hidden", [(10, 10, 10), (5, 3)])
def test_lockstep_runs_equal_run_single_bitwise(hidden):
    # run_single is the oracle: each run_grid record, advanced in lockstep
    # with the other runs of its seed, must carry its bits exactly, also
    # for runs that diverge at the spike (sgd at 3e-5) or at once (alpha 1)
    config = ExperimentConfig(
        alphas=(3e-5, 1.0), betas=(0.01,), n_samples=1010, n_repetitions=2, hidden=hidden
    )
    records, _ = run_grid(config)
    assert len(records) == 4 * 2 * 1 * 2
    diverged = [r.diverged for r in records]
    assert any(diverged) and not all(diverged)
    assert any(np.isnan(r.grad_norm).any() for r in records)
    if hidden == (10, 10, 10):
        # the wide net's sgd at 3e-5 diverges at the spike, step 1000
        assert all(r.diverged for r in records if r.method == "sgd")
    for rec in records:
        ref = run_single(rec.method, rec.alpha, rec.beta, rec.seed, config.n_samples, hidden)
        # tobytes, not array_equal, which finds NaN unequal to NaN
        assert rec.rmse.tobytes() == ref.rmse.tobytes(), rec
        assert rec.grad_norm.tobytes() == ref.grad_norm.tobytes(), rec


def test_sgd_runs_that_differ_only_in_beta_are_bitwise_equal():
    # plain SGD fits raw targets and never reads its normalizer, so its
    # beta changes only the record's label: each grid cell of sgd repeats
    # the run of every other beta, one that runs through the spike at step
    # 1000 (1e-5) and one that diverges there (3e-5)
    for alpha in (1e-5, 3e-5):
        a, b = (run_single("sgd", alpha, beta, 7, n_samples=1010) for beta in (0.01, 0.5))
        assert (a.beta, b.beta) == (0.01, 0.5)
        assert a.rmse.tobytes() == b.rmse.tobytes()
        assert a.grad_norm.tobytes() == b.grad_norm.tobytes()
    config = ExperimentConfig(
        methods=("sgd",), alphas=(1e-5, 3e-5), betas=(0.01, 0.5), n_samples=1010, n_repetitions=2
    )
    records, _ = run_grid(config)
    by_beta = {0.01: [], 0.5: []}
    for rec in records:
        by_beta[rec.beta].append(rec)
    assert len(by_beta[0.01]) == len(by_beta[0.5]) == 2 * 2
    assert any(rec.diverged for rec in records) and not all(rec.diverged for rec in records)
    for a, b in zip(by_beta[0.01], by_beta[0.5]):
        assert (a.alpha, a.seed) == (b.alpha, b.seed)
        assert a.rmse.tobytes() == b.rmse.tobytes()
        assert a.grad_norm.tobytes() == b.grad_norm.tobytes()


@pytest.mark.parametrize("n_repetitions, workers", [(1, 2), (2, 3)])
def test_run_grid_splits_seed_groups_among_workers(n_repetitions, workers):
    # each seed's runs go out in workers // gcd(seeds, workers) chunks (two
    # of one seed; three of each of two seeds), and the records come back
    # in job order, equal to the serial ones
    config = ExperimentConfig(
        methods=("sgd", "popart"), alphas=(3e-5, 1e-2), betas=(0.01,), n_samples=1010,
        n_repetitions=n_repetitions,
    )
    serial, serial_summary = run_grid(config)
    calls = []
    pooled, pooled_summary = run_grid(config, workers=workers, progress=lambda i, n: calls.append(i))
    assert calls == list(range(1, len(serial) + 1))
    assert pooled_summary == serial_summary
    for a, b in zip(pooled, serial):
        assert (a.method, a.alpha, a.beta, a.seed) == (b.method, b.alpha, b.beta, b.seed)
        assert a.rmse.tobytes() == b.rmse.tobytes()
        assert a.grad_norm.tobytes() == b.grad_norm.tobytes()


def test_run_grid_asks_the_pool_for_at_most_one_process_per_task(monkeypatch):
    # the pool forks all of its processes at its first task, so run_grid
    # asks for no more than it has tasks; a fake pool records the ask and
    # runs the tasks in this process
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = ExperimentConfig(
        methods=("sgd", "popart"), alphas=(1e-2,), betas=(0.01,), n_samples=1010, n_repetitions=2
    )
    serial, _ = run_grid(config)
    # two seeds of two runs each: 3 workers get 4 tasks of one run each,
    # and so do 100000
    for workers in (3, 100_000):
        pooled, _ = run_grid(config, workers=workers)
        for a, b in zip(pooled, serial):
            assert a.rmse.tobytes() == b.rmse.tobytes()
    assert asked == [3, 4]


@pytest.mark.parametrize("workers", [0, -1, True, 2.5])
def test_run_grid_names_a_bad_worker_count_before_any_pool_exists(workers, monkeypatch):
    # 0 and -1 raised numpy's "number sections must be larger than 0.",
    # and True ran as 1
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = ExperimentConfig(methods=("sgd",), alphas=(1e-2,), betas=(0.01,), n_samples=1010)
    with pytest.raises(ValueError, match=re.escape(f"invalid workers: {workers!r}")):
        run_grid(config, workers=workers)


def test_importing_the_package_loads_no_process_pool():
    # run_grid loads the pool only when it takes workers > 1, so no start-up
    # of the CLI or of the modules it imports pays for multiprocessing
    code = (
        "import sys, popart, popart.binreg, popart.rl, popart.cli, popart.checks, popart.plotting\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


VALUE_READERS = {"as_float_array", "as_vector", "as_floats", "check_setting", "count", "real"}


def _defined_names(tree: ast.Module) -> set:
    """Every function and class the module defines, at any depth, and
    every name its top level assigns."""
    names = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_values_are_read_and_checked_in_one_leaf_module():
    # every value that enters the package is read by popart.values, which
    # imports no popart module, so every other one can import it
    package = os.path.dirname(popart.__file__)
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert "values.py" in modules
    for name in modules:
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        defined = _defined_names(tree) & VALUE_READERS
        if name != "values.py":
            assert not defined, (name, sorted(defined))
            continue
        assert defined == VALUE_READERS
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module.split(".")[0] != "popart", node.module
            elif isinstance(node, ast.Import):
                assert all(alias.name.split(".")[0] != "popart" for alias in node.names)


def test_the_steps_hand_as_floats_lone_floats(monkeypatch):
    # as_floats keeps one shortcut, for the lone float that the steps hand
    # each other at k = 1, and reads any other form through as_vector.  A
    # step that came to hand it an array would pay that route on every call,
    # so every call a binreg run or the agent makes must take the shortcut
    calls = []
    as_floats = values.as_floats

    def counted(v, k, lo, hi, what):
        calls.append((isinstance(v, float), k, isinstance(v, float) and lo <= v <= hi))
        return as_floats(v, k, lo, hi, what)

    readers = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("popart.") and getattr(module, "as_floats", None) is as_floats
    ]
    assert {module.__name__ for module in readers} >= {"popart.stats", "popart.training"}
    for module in readers:
        monkeypatch.setattr(module, "as_floats", counted)
    for method in sorted(GOLDEN_SINGLE):
        (alpha, beta), _, _ = GOLDEN_SINGLE[method]
        rec = run_single(method, alpha, beta, seed=1000, n_samples=1100)
        assert not rec.diverged
        assert calls and set(calls) == {(True, 1, True)}, method
        calls.clear()
    agent = DoubleQAgent(ChainMdp(), seed=0)
    train(agent, max_steps=200)
    assert agent.step_count == 200
    assert calls and set(calls) == {(True, 1, True)}


REPO = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _references(tree: ast.AST) -> Counter:
    """How often ``tree`` names each identifier: as a name, an attribute,
    an imported name, or a part of a dotted string such as the tracer's
    ``"Mlp.forward_pass"``."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                refs.update(node.value.split("."))
    return refs


def _caller_sources() -> list[Path]:
    """The code outside tests/ whose calls count: the package, the demos
    and the benchmark."""
    return [
        *sorted((REPO / "src" / "popart").glob("*.py")),
        *sorted((REPO / "demos").glob("*.py")),
        *sorted((REPO / "perfbench").glob("*.py")),
    ]


def test_every_public_name_in_the_package_has_a_caller_outside_the_tests():
    # no test-only API: every public function, class and method of the
    # package is named somewhere in src/, demos/, perfbench/ or the README,
    # apart from its own definition.  Names are matched by spelling, so a
    # name two definitions share counts as used when either is
    refs = Counter(re.findall(r"\w+", (REPO / "README.md").read_text(encoding="utf-8")))
    public = {}
    for path in _caller_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        refs.update(_references(tree))
        if path.parent.name != "popart":
            continue
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in [*tree.body, *(item for cls in classes for item in cls.body)]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs[node.name] -= _references(node)[node.name]
                if not node.name.startswith("_"):
                    public.setdefault(node.name, f"{path.name}:{node.lineno}")
    unused = {where: name for name, where in public.items() if refs[name] <= 0}
    assert not unused, f"public names no code outside tests/ reads: {unused}"


FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
# Defaulted parameters that no code outside tests/ passes, kept on purpose:
# (module.function, parameter) -> why
UNPASSED_OPTIONS_KEPT = {
    ("cli.main", "argv"): "the console entry point: the installed script calls main() with "
    "no arguments, so argparse reads sys.argv, and tests hand it theirs",
    ("binreg.run_single", "hidden"): "the bitwise oracle of run_grid's lockstep runs, so it "
    "takes every config.hidden that run_grid takes",
}


def _decorator_names(node) -> set:
    return {ast.unparse(d).rsplit(".", 1)[-1] for d in node.decorator_list}


def _parameter_options(node: ast.FunctionDef, bound: int) -> dict:
    """The defaulted parameters of ``node``, each mapped to its position
    among a call's arguments, past the ``bound`` ones (``self`` or
    ``cls``) that come bound, or to None when it is keyword-only, and to
    its default: ``name -> (position, default)``."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    defaulted = positional[len(positional) - len(args.defaults) :]
    options = {p.arg: (positional.index(p) - bound, d) for p, d in zip(defaulted, args.defaults)}
    keyword_only = zip(args.kwonlyargs, args.kw_defaults)
    options.update((p.arg, (None, default)) for p, default in keyword_only if default is not None)
    return options


def _field_options(cls: ast.ClassDef) -> dict:
    """The defaulted constructor fields of dataclass ``cls``, each mapped
    to its position and its default, None for a ``default_factory``; a
    ``ClassVar`` or a ``field(init=False)`` is none."""
    fields, defaults = [], {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign) or "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        if isinstance(value, ast.Call) and ast.unparse(value.func).endswith("field"):
            settings = {k.arg: k.value for k in value.keywords}
            if getattr(settings.get("init"), "value", True) is False:
                continue
            if {"default", "default_factory"} & set(settings):
                defaults[node.target.id] = settings.get("default")
        elif value is not None:
            defaults[node.target.id] = value
        fields.append(node.target.id)
    return {name: (i, defaults[name]) for i, name in enumerate(fields) if name in defaults}


def _public_options(tree: ast.Module):
    """``(qualified name, callee name, options)`` for every public function,
    method and constructor a module defines, its options being its
    defaulted parameters or fields; a constructor is called by its class's
    name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, _parameter_options(node, 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if "dataclass" in _decorator_names(node):
            yield node.name, node.name, _field_options(node)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            bound = 0 if "staticmethod" in _decorator_names(item) else 1
            if item.name == "__init__":
                yield node.name, node.name, _parameter_options(item, bound)
            elif not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item.name, _parameter_options(item, bound)


def _key_sets(tree: ast.Module) -> dict:
    """``name -> keys`` for each name that ``tree`` binds once, to a dict
    comprehension keyed by its loop variable over a module-level tuple of
    strings, as in ``cfg = {k: raw[k] for k in _KEYS if k in raw}``, and
    never subscripts or calls a method of: its keys are among the tuple's."""
    tuples = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            items = [getattr(e, "value", None) for e in node.value.elts]
            if all(isinstance(item, str) for item in items):
                tuples.update((getattr(t, "id", None), set(items)) for t in node.targets)
    stores, touched, keys = Counter(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            stores[node.id] += 1
        elif isinstance(node, (ast.Subscript, ast.Attribute)):
            touched.add(getattr(node.value, "id", None))  # it may write into the dict
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.DictComp):
            (target, *more), comp = node.targets, node.value
            (loop, *loops) = comp.generators
            names = [getattr(n, "id", None) for n in (target, loop.iter, loop.target, comp.key)]
            if not (more or loops or None in names) and names[1] in tuples and names[2] == names[3]:
                keys[names[0]] = tuples[names[1]]
    return {name: k for name, k in keys.items() if stores[name] == 1 and name not in touched}


def _calls(tree: ast.AST):
    """``(callee name, arguments, keywords)`` for each call in ``tree``: the
    expressions it passes by position, an ``ast.Starred`` among them for
    ``*args``, and those it passes by keyword, keyed by name.  A
    ``**mapping`` passes the mapping under each key :func:`_key_sets`
    finds for it, and any other ``**`` passes itself under None, which
    stands for any key.  In a class body, ``cls(...)`` and ``replace(self,
    ...)`` call the class's constructor."""
    owner = {}
    for cls in ast.walk(tree):  # outer classes first, so inner ones win
        if isinstance(cls, ast.ClassDef):
            owner.update((node, cls.name) for node in ast.walk(cls))
    key_sets = _key_sets(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        args = node.args
        if name == "cls":
            name = owner.get(node)
        elif name == "replace" and args and getattr(args[0], "id", None) == "self":
            name, args = owner.get(node), args[1:]
        keywords = {}
        for k in node.keywords:
            mapping = getattr(k.value, "id", None) if k.arg is None else None
            keys = key_sets[mapping] if mapping in key_sets else {k.arg}
            keywords.update(dict.fromkeys(keys, k.value))
        yield name, args, keywords


def test_a_mapping_built_from_a_tuple_of_keys_passes_those_keys_only():
    # cmd_rl_demo's ChainMdp(**mdp_cfg) counted as passing every field, so
    # a defaulted field rl-demo --config cannot reach went unseen
    tree = ast.parse(
        '_KEYS = ("a", "b")\n'
        "def f(raw):\n"
        "    cfg = {k: raw[k] for k in _KEYS if k in raw}\n"
        "    more = {k: raw[k] for k in _KEYS}\n"
        "    more['c'] = 1\n"
        "    g(**cfg)\n"
        "    g(**more)\n"
        "    g(x=1, **raw)\n"
    )
    calls = [(len(args), set(keywords)) for name, args, keywords in _calls(tree) if name == "g"]
    assert calls == [(0, {"a", "b"}), (0, {None}), (0, {"x", None})]


def _argument(option: str, position, args: list, keywords: dict):
    """The expression a call gives ``option``, which sits at ``position``
    (None when keyword-only): by keyword, by position, through a ``*`` or
    a ``**`` that may hold it, or None when the call leaves it out."""
    if option in keywords:
        return keywords[option]
    if position is not None:
        for arg in args[: position + 1]:
            if isinstance(arg, ast.Starred):
                return arg
        if position < len(args):
            return args[position]
    return keywords.get(None)


def _literal(node):
    """``(True, value)`` for a literal expression, ``(False, None)`` for
    anything else."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False, None


DEFAULT = "the default"


def _value(given, default):
    """The value of an option, whose default is ``default``, that a call
    gives it as ``given``: :data:`DEFAULT` when the call leaves it out or
    passes a literal equal to its default; the text of a constant
    expression, a literal or a call whose arguments are all literals; and
    None, which differs from every value, for a name, a ``*``, a ``**`` or
    any other expression."""
    if given is None:
        return DEFAULT
    is_literal, value = _literal(given)
    if is_literal:
        return DEFAULT if _literal(default) == (True, value) else ast.unparse(given)
    if isinstance(given, ast.Call) and all(
        _literal(a)[0] for a in [*given.args, *(k.value for k in given.keywords)]
    ):
        return ast.unparse(given)
    return None


def _one_valued_options(callers: list, package: dict) -> set:
    """``(module.qualified name, option)`` for each option of a public
    function, method or constructor of the modules in ``package`` (stem ->
    tree) that the calls in the trees ``callers`` give fewer than two
    values, in the sense of :func:`_value`; callees are matched by
    spelling, as public names are above."""
    calls = {}
    for tree in callers:
        for name, args, keywords in _calls(tree):
            calls.setdefault(name, []).append((args, keywords))
    found = set()
    for stem, tree in package.items():
        for qualified, callee, options in _public_options(tree):
            for option, (position, default) in options.items():
                values = {
                    _value(_argument(option, position, args, keywords), default)
                    for args, keywords in calls.get(callee, ())
                }
                if None not in values and len(values) < 2:
                    found.add((f"{stem}.{qualified}", option))
    return found


def test_an_option_is_in_use_only_when_calls_give_it_two_values():
    # harmonic(beta0, tau) was only ever called as harmonic() or
    # harmonic(0.1, 1000.0), and each tracker's schedule only as
    # harmonic(0.1, 1000.0): each passed, each with one value in use
    package = {
        "m": ast.parse(
            "def left_out(a=1): pass\n"
            "def literal(a=1): pass\n"
            "def two_literals(a=1): pass\n"
            "def constant_call(a=None): pass\n"
            "def named(a=1): pass\n"
            "def starred(a=1, b=2): pass\n"
            "def mapping(*, a=1): pass\n"
            "def expression(a=1): pass\n"
        )
    }
    callers = [
        ast.parse(
            "left_out()\n"
            "left_out(1.0)\n"  # a literal equal to the default gives the default
            "literal(2)\n"
            "literal(a=2)\n"
            "two_literals(2)\n"
            "two_literals()\n"
            "constant_call(g(1, x='y'))\n"
            "constant_call(a=g(1, x='y'))\n"
            "named(n)\n"
            "starred(0, *rest)\n"
            "mapping(**kw)\n"
            "expression(g(n))\n"
        )
    ]
    assert _one_valued_options(callers, package) == {
        ("m.left_out", "a"),
        ("m.literal", "a"),
        ("m.constant_call", "a"),
        ("m.starred", "a"),
    }


def test_every_defaulted_parameter_in_the_package_is_passed_outside_the_tests():
    # no option with one value in use: every defaulted parameter of a
    # public function, method or constructor, and every defaulted field of
    # a public dataclass, is given two different values by the calls in
    # src/, demos/, perfbench/ and the README's Python blocks, by keyword
    # or by position; an option no call passes has one, its default
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    sources = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _caller_sources()}
    callers = [*sources.values(), *map(ast.parse, FENCED_PYTHON.findall(readme))]
    package = {path.stem: tree for path, tree in sources.items() if path.parent.name == "popart"}
    one_valued = _one_valued_options(callers, package)
    assert one_valued <= set(UNPASSED_OPTIONS_KEPT), (
        f"defaulted parameters the code outside tests/ gives one value: "
        f"{sorted(one_valued - set(UNPASSED_OPTIONS_KEPT))}"
    )
    # an entry whose parameter gained a second value, or went, is stale
    assert set(UNPASSED_OPTIONS_KEPT) <= one_valued, sorted(set(UNPASSED_OPTIONS_KEPT) - one_valued)


def test_the_readme_python_blocks_run():
    # in order and in one namespace, as a reader pastes them, with the names
    # they take as given bound to small values: a signature change that
    # leaves the README behind fails here
    stream = BinRegStream(seed=0)
    x0, x1, x2 = (stream.sample()[0] for _ in range(3))
    namespace = {
        "my_stream": [stream.sample() for _ in range(3)],
        "x0": x0,
        "x1": x1,
        "x2": x2,
        "nets": [Mlp([16, 10], rng=seed) for seed in range(2)],
        "layers": [OutputLayer(1, 10, rng=seed) for seed in range(2)],
    }
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = FENCED_PYTHON.findall(readme)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["values"].shape == (2, 1)


# a backticked dotted name, alone or called: `popart.rl.train` or `Mlp.stack(nets)`
README_DOTTED_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)[`(]")


def _unresolved_readme_names(names) -> list[str]:
    """The names of ``names`` that the README may not name, as they no
    longer resolve: each ``popart.<module>.<name>...`` path, and each
    ``<Class>.<attr>...`` of a class ``popart`` exports, whose attributes
    are looked up on the class (its methods, properties and constants)."""
    unresolved = []
    for name in names:
        first, *rest = name.split(".")
        if first == "popart":
            # the longest leading run that is a module, then attributes
            for cut in range(len(rest), -1, -1):
                try:
                    obj = importlib.import_module(".".join([first, *rest[:cut]]))
                except ModuleNotFoundError:
                    continue
                rest = rest[cut:]
                break
        elif first in popart.__all__ and isinstance(getattr(popart, first), type):
            obj = getattr(popart, first)
        else:
            continue  # another package's, or a file name
        for attr in rest:
            if not hasattr(obj, attr):
                unresolved.append(name)
                break
            obj = getattr(obj, attr)
    return unresolved


def test_every_package_name_the_readme_gives_resolves():
    # a name the README gives in backticks, of a popart module's attribute
    # or an exported class's, exists: prose that names a deleted method or
    # constant fails here
    names = README_DOTTED_NAME.findall((REPO / "README.md").read_text(encoding="utf-8"))
    assert "popart.stats.Normalizer" in names and "Mlp.stack" in names
    assert not _unresolved_readme_names(names), _unresolved_readme_names(names)
    # deleted from the package, so the guard must not resolve them
    gone = ["Mlp.forward", "Mlp.n_inputs", "popart.rl.MAX_STATES", "popart.stats.erf"]
    assert _unresolved_readme_names(gone) == gone


def test_results_csv_bytes_are_csv_writers(tmp_path):
    rmse = np.array([1.5, 1e-300, 123456.789, np.inf, np.inf])
    grad_norm = np.array([0.1, 2.0**-1074, 7e22, np.nan, np.inf])
    records = [
        RunRecord("sgd", 10.0**-4.5, 0.01, 1000, rmse, grad_norm),
        RunRecord("popart", 1.0, 1, 2**40, rmse[::-1].copy(), grad_norm[::-1].copy()),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(str(path), records)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(RESULTS_HEADER)
    for rec in records:
        for step, (r, g) in enumerate(zip(rec.rmse.tolist(), rec.grad_norm.tolist()), 1):
            writer.writerow([rec.method, repr(rec.alpha), repr(rec.beta), rec.seed, step, r, g])
    assert path.read_bytes() == expected.getvalue().encode()
    assert b"inf" in path.read_bytes() and b"nan" in path.read_bytes()


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
