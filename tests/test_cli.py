import hashlib
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popart import checks
from popart.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, EXIT_VERIFY_FAILED, main
from popart.binreg import (
    MAX_GRID_SAMPLES,
    RESULTS_HEADER,
    RUN_SAMPLES,
    ExperimentConfig,
    read_results_csv,
)

TINY_BINREG = {
    "methods": ["popart"],
    "alphas": [1e-2],
    "betas": [0.1],
    "n_samples": 40,
    "n_repetitions": 2,
}
# every method at two cells; all four sgd runs diverge
GOLDEN_BINREG = {
    "methods": ["sgd", "art", "popart", "normalized_sgd"],
    "alphas": [1e-2, 1.0],
    "betas": [0.1],
    "n_samples": 60,
    "n_repetitions": 2,
}
# what `popart binreg --sort`, now plain `popart binreg`, wrote for
# GOLDEN_BINREG before `results.csv` had a reader of its own (the summary
# re-recorded when sgd's infinite median AUC became null, and again when
# sgd's alpha and beta did, since no cell of it finished, and all of it when
# the normalizer came to store the variance in place of the second moment)
GOLDEN_BINREG_SHA256 = {
    "results.csv": "d54e43af266df34f87bb25820db6deb9ddc9b45681741b8f3989682f471d0489",
    "summary.json": "5a0a21b2c4606534e6cd639e7d76cca6fd1808e40aaf530a4e30f28fd2846727",
}
# sgd over 1100 samples: one of five runs finishes, four diverge at the spike
MIXED_BINREG = {
    "methods": ["sgd"],
    "alphas": [3e-5],
    "betas": [0.01],
    "n_samples": 1100,
    "n_repetitions": 5,
}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_binreg_writes_outputs(tmp_path):
    out = tmp_path / "run1"
    code = main(
        ["binreg", "--config", _write_config(tmp_path, TINY_BINREG), "--out", str(out)]
    )
    assert code == EXIT_OK
    header = (out / "results.csv").read_text().splitlines()[0]
    assert header == ",".join(RESULTS_HEADER)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["popart"]["alpha"] == 1e-2


def test_binreg_svg_and_sort(tmp_path):
    out = tmp_path / "run2"
    code = main(
        [
            "binreg",
            "--config",
            _write_config(tmp_path, TINY_BINREG),
            "--out",
            str(out),
            "--svg",
        ]
    )
    assert code == EXIT_OK
    svg = (out / "popart.svg").read_text()
    assert svg.startswith("<svg")


# sgd ignores beta, so its two cells at each alpha tie; the summary names
# the smallest beta however the grid lists them (before, the one listed first)
TIED_BINREG = {
    "methods": ["sgd", "popart"],
    "alphas": [1e-5, 1e-4],
    "betas": [0.01, 0.1],
    "n_samples": 300,
    "n_repetitions": 2,
}


@pytest.mark.parametrize("permuted", ["methods", "alphas", "betas", "all"])
def test_binreg_writes_the_same_bytes_however_the_grid_is_listed(tmp_path, permuted):
    outs = {}
    for order in ("listed", permuted):
        payload = dict(TIED_BINREG)
        for key in ("methods", "alphas", "betas"):
            if order in (key, "all"):
                payload[key] = payload[key][::-1]
        out = tmp_path / order
        assert main(["binreg", "--config", _write_config(tmp_path, payload), "--out", str(out)]) == 0
        outs[order] = [(out / name).read_bytes() for name in ("results.csv", "summary.json")]
    assert outs[permuted] == outs["listed"]
    summary = json.loads(outs["listed"][1])
    assert summary["sgd"]["beta"] == 0.01


def test_binreg_missing_config_names_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code = main(["binreg", "--config", missing, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert missing in capsys.readouterr().err


def test_binreg_unknown_config_key(tmp_path):
    cfg = _write_config(tmp_path, {"n_sampels": 10})
    code = main(["binreg", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_binreg_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["binreg", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_binreg_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(
        [
            "binreg",
            "--config",
            _write_config(tmp_path, TINY_BINREG),
            "--out",
            str(blocker / "sub"),
        ]
    )
    assert code == EXIT_IO


def test_binreg_golden(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, GOLDEN_BINREG)
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "sgd: every cell diverged"
    sgd = json.loads((out / "summary.json").read_text())["sgd"]
    assert sgd == {"alpha": None, "beta": None, "median_auc": None}
    for name, digest in GOLDEN_BINREG_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert sorted(os.listdir(out)) == ["results.csv", "summary.json"]


def test_binreg_deterministic_with_sort(tmp_path):
    cfg = _write_config(tmp_path, TINY_BINREG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outs.append((out / "results.csv").read_text())
    assert outs[0] == outs[1]


def test_rl_demo_steps_zero_header_only(tmp_path):
    out = tmp_path / "rl"
    code = main(["rl-demo", "--out", str(out), "--steps", "0"])
    assert code == EXIT_OK
    lines = (out / "rl_metrics.csv").read_text().splitlines()
    assert lines == ["step,episode,reward,grad_norm,normalized_error"]
    summary = json.loads((out / "rl_summary.json").read_text())
    assert summary == {"steps": 0}


def test_rl_demo_short_run(tmp_path):
    out = tmp_path / "rl2"
    code = main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"])
    assert code == EXIT_OK
    rows = (out / "rl_metrics.csv").read_text().splitlines()
    assert rows[0] == "step,episode,reward,grad_norm,normalized_error"
    assert len(rows) > 100
    summary = json.loads((out / "rl_summary.json").read_text())
    assert "max_relative_q_error" in summary
    assert summary["terminal_reward"] == 1000.0


# what `popart rl-demo --steps 400 --seed 0` wrote before the agent batched
# its forward passes (the metrics hash re-recorded when the step column
# became 1..N, and all of it when training stopped at step 400 instead of
# finishing the episode at 403: the 400 rows kept are the ones written
# before; all of it again when the normalizer came to store the variance);
# any change to the arithmetic of the rl loop fails here
GOLDEN_RL_SUMMARY = """{
  "steps": 400,
  "terminal_reward": 1000.0,
  "max_relative_q_error": 0.9692675380226368,
  "greedy_policy": [
    0,
    0,
    0,
    0
  ]
}
"""
GOLDEN_RL_METRICS_SHA256 = "8472e1d845c8e9f3bce372718a7b76b28860c72e6afabddff814d5b0efddf541"
GOLDEN_RL_METRICS_LAST_ROW = "400,94,0.0,0.1005808774419351,0.07969793568964789"


def test_rl_demo_golden(tmp_path):
    out = tmp_path / "rl"
    assert main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"]) == EXIT_OK
    assert (out / "rl_summary.json").read_text() == GOLDEN_RL_SUMMARY
    metrics = (out / "rl_metrics.csv").read_bytes()
    assert metrics.decode().splitlines()[-1] == GOLDEN_RL_METRICS_LAST_ROW
    assert hashlib.sha256(metrics).hexdigest() == GOLDEN_RL_METRICS_SHA256


def test_rl_demo_steps_count_from_one(tmp_path):
    out = tmp_path / "rl"
    assert main(["rl-demo", "--out", str(out), "--steps", "400", "--seed", "0"]) == EXIT_OK
    rows = [line.split(",") for line in (out / "rl_metrics.csv").read_text().splitlines()[1:]]
    summary = json.loads((out / "rl_summary.json").read_text())
    assert [int(r[0]) for r in rows] == list(range(1, summary["steps"] + 1))
    episodes = [int(r[1]) for r in rows]
    assert episodes[0] == 1
    assert all(0 <= b - a <= 1 for a, b in zip(episodes, episodes[1:]))


def test_rl_demo_divergence_is_one_line_and_exit_code(tmp_path, capsys):
    # reward 1, agent seed 6: the loss turns non-finite at step 5282
    out = tmp_path / "rl"
    path = _write_config(tmp_path, {"terminal_reward": 1.0})
    args = ["rl-demo", "--config", path, "--out", str(out), "--steps", "6000", "--seed", "6"]
    assert main(args) == EXIT_DIVERGED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: training diverged at step 5282: non-finite loss or gradient norm "
        "(terminal reward 1)"
    ]
    assert os.listdir(out) == []


def test_rl_demo_non_finite_q_table_is_divergence(tmp_path, capsys):
    # alpha 1e36: both steps have a finite loss, but the weights overflow
    # the Q table that the summary reads
    out = tmp_path / "rl"
    path = _write_config(tmp_path, {"hidden": [4], "n_states": 2, "alpha": 1e36})
    assert main(["rl-demo", "--config", path, "--out", str(out), "--steps", "2"]) == EXIT_DIVERGED
    assert capsys.readouterr().err.splitlines() == [
        "error: training diverged by step 2: non-finite Q values (terminal reward 1000)"
    ]
    assert os.listdir(out) == []


def test_rl_demo_rejects_unknown_config_key(tmp_path):
    path = tmp_path / "rl.json"
    path.write_text(json.dumps({"copyperiod": 7}))
    code = main(["rl-demo", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "payload",
    [
        {"copy_period": 0},
        {"copy_period": 2.5},
        {"n_states": 1},
        {"n_states": 11585},
        {"gamma": "x"},
        {"gamma": 1.5},
        {"terminal_reward": float("inf")},
        {"terminal_reward": 1.5e154},
        {"terminal_reward": -1.0},
        {"gamma": 1e-200},
        {"beta": 1e-17},
        {"hidden": []},
        {"hidden": [0]},
        {"beta": 0},
        {"alpha": -1e-3},
        {"epsilon_greedy": 2},
    ],
    ids=json.dumps,
)
def test_rl_demo_config_out_of_range_is_config_error(tmp_path, capsys, payload):
    out = tmp_path / "o"
    path = _write_config(tmp_path, payload)
    code = main(["rl-demo", "--config", path, "--out", str(out), "--steps", "10"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    ("reward", "shown"), [(0, "0"), (-0.0, "-0")], ids=["config", "negative-zero"]
)
def test_rl_demo_zero_terminal_reward_is_config_error(tmp_path, capsys, reward, shown):
    # every exact value is 0, so the relative Q error would divide by 0
    path = _write_config(tmp_path, {"terminal_reward": reward})
    out = tmp_path / "o"
    code = main(["rl-demo", "--config", path, "--out", str(out), "--steps", "10"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: terminal_reward {shown} with gamma 0.99: an exact Q value is "
        "then 0, so the relative Q error is undefined\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"n_samples": 0},
        {"n_repetitions": 0},
        {"smoothing_window": 0},
        {"base_seed": -1},
        {"hidden": []},
        {"hidden": [0]},
        {"betas": [0]},
        {"betas": [1.5]},
        {"alphas": "x"},
        {"alphas": []},
        {"methods": []},
        {"n_samples": "x"},
    ],
    ids=json.dumps,
)
def test_binreg_config_out_of_range_is_config_error(tmp_path, capsys, payload):
    # rejected before any run: nothing is written, not even the directory
    out = tmp_path / "o"
    path = _write_config(tmp_path, {**TINY_BINREG, **payload})
    code = main(["binreg", "--config", path, "--out", str(out), "--svg"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "payload"),
    [
        ("binreg", {"n_samples": True}),
        ("binreg", {"n_repetitions": True}),
        ("binreg", {"smoothing_window": True}),
        ("binreg", {"base_seed": False}),
        ("binreg", {"hidden": [True]}),
        ("rl-demo", {"hidden": [True]}),
        ("rl-demo", {"copy_period": True}),
    ],
    ids=lambda p: p if isinstance(p, str) else json.dumps(p),
)
def test_boolean_count_is_config_error(tmp_path, capsys, command, payload):
    # operator.index takes True as 1, but JSON's true is no count
    _assert_config_error_names_key(tmp_path, capsys, command, payload)


@pytest.mark.parametrize(
    "payload",
    [{"methods": ["sgd", "sgd"]}, {"alphas": [1e-5, 1e-5]}, {"betas": [0.1, 0.3, 0.1]}],
    ids=json.dumps,
)
def test_binreg_repeated_grid_value_is_config_error(tmp_path, capsys, payload):
    # a repeated value ran its cells twice under one key: binreg exited 0,
    # and plot then rejected its results.csv at step 1 of the second copy
    # (hidden's repeats, as in the default (10, 10, 10), are layer widths)
    out = tmp_path / "o"
    path = _write_config(tmp_path, {**TINY_BINREG, "n_samples": 20, **payload})
    assert main(["binreg", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    ((name, values),) = payload.items()
    err = capsys.readouterr().err
    assert err == f"config error: invalid {name}: {tuple(values)!r} repeats a value\n"
    assert not out.exists()


def _assert_config_error_names_key(tmp_path, capsys, command, payload):
    out = tmp_path / "o"
    base = TINY_BINREG if command == "binreg" else {}
    path = _write_config(tmp_path, {**base, **payload})
    args = ["--steps", "10"] if command == "rl-demo" else []
    code = main([command, "--config", path, "--out", str(out), *args])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid {next(iter(payload))}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "payload"),
    [
        ("binreg", {"n_samples": 2**63}),
        ("binreg", {"n_repetitions": 2**63}),
        ("binreg", {"hidden": [2**64]}),
        ("rl-demo", {"hidden": [2**63]}),
        ("rl-demo", {"n_states": 2**63}),
    ],
    ids=lambda p: p if isinstance(p, str) else json.dumps(p),
)
def test_count_no_array_can_hold_is_config_error(tmp_path, capsys, command, payload):
    # above sys.maxsize, numpy refuses the array with a traceback of its own
    _assert_config_error_names_key(tmp_path, capsys, command, payload)


@pytest.mark.parametrize(
    ("payload", "numbers"),
    [
        ({"n_repetitions": 4611686018427387904}, "461168601842738790400 runs x (5000 samples"),
        ({"n_repetitions": 20649, "n_samples": 1}, "2064900 runs x (1 samples + 64) = 134218500 "),
        ({"n_samples": 10**6}, "1000 runs x (1000000 samples + 64) = 1000064000"),
    ],
    ids=json.dumps,
)
def test_binreg_grid_past_the_size_limit_is_config_error(tmp_path, capsys, payload, numbers):
    # run_grid would hold every record: the first grid grew memory until the
    # machine ran out.  The config must refuse it before main can run it
    with pytest.raises(ValueError, match="grid too large"):
        ExperimentConfig.profile("ci").with_overrides(payload)
    out = tmp_path / "o"
    path = _write_config(tmp_path, payload)
    assert main(["binreg", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: grid too large: {numbers}")
    assert err.endswith(" is above the limit of 134217728 (2**27, about 2 GiB of records)\n")
    assert not out.exists()


def test_binreg_full_profile_is_within_the_size_limit():
    config = ExperimentConfig.profile("full")
    runs = len(config.methods) * len(config.alphas) * len(config.betas) * config.n_repetitions
    assert runs == 24200 and runs * (config.n_samples + RUN_SAMPLES) <= MAX_GRID_SAMPLES
    with pytest.raises(ValueError, match="grid too large"):
        config.with_overrides({"n_repetitions": 55})


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_binreg_workers_below_one_is_config_error(tmp_path, capsys, workers):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, TINY_BINREG)
    code = main(["binreg", "--config", cfg, "--out", str(out), "--workers", workers])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: invalid workers: {workers} (must be at least 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("cpus, limit", [(4, 4), (None, 1)])
def test_binreg_workers_above_cpu_count_is_config_error(tmp_path, capsys, monkeypatch, cpus, limit):
    # each worker is a forked process and the pool starts them all at once,
    # so the CLI refuses more than the CPUs, before it makes --out; a pool
    # that fails on creation keeps a missing check from starting any
    import concurrent.futures

    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} was asked for")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, TINY_BINREG)
    for workers in (str(limit + 1), "100000"):
        code = main(["binreg", "--config", cfg, "--out", str(out), "--workers", workers])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: invalid workers: {workers} (at most {limit}, the CPU count)\n"
        assert not out.exists()


def test_rl_demo_negative_steps_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["rl-demo", "--out", str(out), "--steps", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: invalid steps: -1 (must be at least 0)\n"
    assert not out.exists()


def test_rl_demo_relative_error_past_the_largest_double_is_null(tmp_path, capsys):
    # every exact value is the smallest subnormal, so the learned values'
    # relative error overflows; the summary stays strict JSON
    path = _write_config(tmp_path, {"terminal_reward": 5e-324})
    out = tmp_path / "o"
    assert main(["rl-demo", "--config", path, "--out", str(out), "--steps", "20"]) == EXIT_OK
    assert capsys.readouterr().out == "max relative Q error after 20 steps: inf\n"
    text = (out / "rl_summary.json").read_text()
    summary = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text}"))
    assert summary["max_relative_q_error"] is None


def test_rl_demo_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["rl-demo", "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: invalid seed: -1\n"
    assert not out.exists()


def test_rl_demo_seed_past_sys_maxsize_runs(tmp_path):
    # default_rng takes any int of at least 0; only the sign is checked
    out = tmp_path / "o"
    assert main(["rl-demo", "--out", str(out), "--seed", str(2**64), "--steps", "5"]) == EXIT_OK


@pytest.mark.parametrize(
    "args",
    [
        ["binreg", "--seed", "7"],
        ["binreg", "--sort"],
        ["rl-demo", "--reward-scale", "2"],
        ["verify", "--profile", "ci"],
    ],
    ids=lambda a: " ".join(a),
)
def test_removed_flags_are_rejected(tmp_path, capsys, args):
    # each setting has one route: base_seed and terminal_reward are config
    # keys, binreg always sorts its rows, and verify runs every check at
    # the size its acceptance gate uses
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "o")])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_binreg_base_seed_comes_from_config(tmp_path, monkeypatch):
    # POPART_WORKERS is no route to the worker count either
    monkeypatch.setenv("POPART_WORKERS", "not-a-number")
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, {**TINY_BINREG, "base_seed": 7})
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert sorted({int(row.split(",")[3]) for row in rows}) == [7, 8]


# a value of each JSON type, most of them valid for no key of either
# command; JSON's true is also 1 to Python, so half of them hold bools
_JUNK = st.one_of(
    st.one_of(st.booleans(), st.lists(st.booleans(), min_size=1, max_size=2)),
    st.one_of(
        st.none(),
        st.integers(-2, 0),
        st.floats(),
        st.integers(min_value=sys.maxsize + 1, max_value=2**80),
        st.text(max_size=3),
        st.lists(st.lists(st.integers(-1, 2), max_size=2), max_size=2),
    ),
)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FRACTION = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def _tiny_list(elements):
    return st.lists(elements, min_size=1, max_size=2)


# tiny valid values of each key: no valid size is large, and a key left out
# takes the tiny value of the base config
BINREG_BASE = {**TINY_BINREG, "n_samples": 20, "n_repetitions": 1, "hidden": [4]}
RL_BASE = {"hidden": [4]}
BINREG_KEYS = {
    "methods": _tiny_list(st.sampled_from(["sgd", "art", "popart", "normalized_sgd"])),
    "alphas": _tiny_list(_POSITIVE),
    "betas": _tiny_list(_FRACTION),
    "n_samples": st.integers(1, 20),
    "n_repetitions": st.integers(1, 2),
    "smoothing_window": st.integers(1, 20),
    "hidden": _tiny_list(st.integers(1, 4)),
    "base_seed": st.integers(0, sys.maxsize),
}
RL_KEYS = {
    "n_states": st.integers(2, 6),
    "terminal_reward": st.floats(allow_nan=False, allow_infinity=False),
    "gamma": _FRACTION,
    "hidden": _tiny_list(st.integers(1, 4)),
    "alpha": _POSITIVE,
    "beta": _FRACTION,
    "epsilon_greedy": st.floats(min_value=0.0, max_value=1.0),
    "copy_period": st.integers(1, 20),
}


@st.composite
def _configs(draw, base, keys):
    """``base`` updated with a subset of ``keys``: tiny values, of which
    at most one is replaced by junk."""
    config = {**base, **draw(st.fixed_dictionaries({}, optional=keys))}
    junk_key = draw(st.one_of(st.none(), st.sampled_from(sorted(keys))))
    if junk_key is not None:
        config[junk_key] = draw(_JUNK)
    return config


def _run_cli(args, config):
    """``main(args)`` with ``--config`` and ``--out`` in a fresh directory:
    its exit code, its stderr and whether ``--out`` exists afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_text(json.dumps(config))
        out = Path(tmp, "out")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*args, "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), out.exists()


def _holds_bool(value):
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _assert_exit_is_clean(config, code, err, out_exists):
    """A config error is one line and leaves no ``--out``; JSON's ``true``
    and ``false`` are no key's value, so a config holding one is an error."""
    if any(map(_holds_bool, config.values())):
        assert code == EXIT_CONFIG
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out_exists


@settings(deadline=None, max_examples=150)
@given(config=_configs(BINREG_BASE, BINREG_KEYS), svg=st.booleans())
def test_binreg_config_property(config, svg):
    # any config ends in success or one config error line, never a traceback
    code, err, out_exists = _run_cli(["binreg", *(["--svg"] if svg else [])], config)
    assert code in (EXIT_OK, EXIT_CONFIG)
    _assert_exit_is_clean(config, code, err, out_exists)


@settings(deadline=None, max_examples=150)
@given(config=_configs(RL_BASE, RL_KEYS), steps=st.integers(0, 20))
def test_rl_demo_config_property(config, steps):
    code, err, out_exists = _run_cli(["rl-demo", "--steps", str(steps)], config)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DIVERGED)
    _assert_exit_is_clean(config, code, err, out_exists)


_COMMANDS = {
    "binreg": (BINREG_BASE, BINREG_KEYS, []),
    "rl-demo": (RL_BASE, RL_KEYS, ["--steps", "5"]),
}


@settings(deadline=None, max_examples=100)
@given(data=st.data(), command=st.sampled_from(sorted(_COMMANDS)))
def test_a_bool_in_place_of_any_config_value_is_config_error(data, command):
    # operator.index and the comparisons take True as 1, but no key takes a
    # bool: not as its value, nor as an element of its list
    base, keys, args = _COMMANDS[command]
    config = {**base, **data.draw(st.fixed_dictionaries({}, optional=keys))}
    key = data.draw(st.sampled_from(sorted(keys)))
    value = data.draw(keys[key])
    if isinstance(value, list):
        value[data.draw(st.integers(0, len(value) - 1))] = data.draw(st.booleans())
    else:
        value = data.draw(st.booleans())
    config[key] = value
    code, err, out_exists = _run_cli([command, *args], config)
    assert code == EXIT_CONFIG
    _assert_exit_is_clean(config, code, err, out_exists)


# md5s of what `binreg --profile ci --workers 1` writes with
# CI_DIGEST_CONFIG, the ci grid at one repetition over the spike (re-recorded
# when the normalizer came to store the variance: values moved by at most
# 5.1e-11 relative, and every best alpha and beta stayed)
CI_DIGEST_CONFIG = {"n_repetitions": 1, "n_samples": 1100}
CI_DIGESTS = {
    "results.csv": "3c501e57604e8fca48f6d23b56f5a73f",
    "summary.json": "da3ffd733a6ccb09140d312e7b2f69e2",
}


def test_binreg_ci_profile_digests(tmp_path):
    out = tmp_path / "ci"
    path = _write_config(tmp_path, CI_DIGEST_CONFIG)
    args = ["--profile", "ci", "--workers", "1", "--config", path, "--out", str(out)]
    assert main(["binreg", *args]) == EXIT_OK
    for name, digest in CI_DIGESTS.items():
        assert hashlib.md5((out / name).read_bytes()).hexdigest() == digest, name


def test_plot_from_existing_results(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, TINY_BINREG)
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    plots = tmp_path / "plots"
    code = main(
        ["plot", "--results", str(out / "results.csv"), "--out", str(plots)]
    )
    assert code == EXIT_OK
    assert (plots / "popart.svg").read_text().startswith("<svg")


def _svgs(path):
    return {p.name: p.read_bytes() for p in sorted(path.glob("*.svg"))}


@pytest.mark.parametrize(
    "config, methods",
    [
        (TINY_BINREG, ["popart.svg"]),
        (MIXED_BINREG, []),
        (GOLDEN_BINREG, ["art.svg", "normalized_sgd.svg", "popart.svg"]),
    ],
    ids=["tiny", "mixed", "golden"],
)
def test_plot_charts_what_binreg_svg_charts(tmp_path, config, methods):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, config)
    assert main(["binreg", "--config", cfg, "--out", str(out), "--svg"]) == EXIT_OK
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(out / "results.csv"), "--out", str(plots)]) == EXIT_OK
    assert sorted(_svgs(plots)) == methods
    assert _svgs(plots) == _svgs(out)


_HEADER = ",".join(RESULTS_HEADER)
MALFORMED_RESULTS = {
    "bad_header": ("method,alpha\n", 1),
    "short_row": (_HEADER + "\npopart,0.01,0.1,2,1,1.5\n", 2),
    "non_numeric": (_HEADER + "\npopart,0.01,0.1,2,1,1.5,2.5\npopart,0.01,0.1,2,2,x,2.5\n", 3),
    "step_out_of_order": (_HEADER + "\npopart,0.01,0.1,2,2,1.5,2.5\n", 2),
    # two runs of one cell, the second cut at a row boundary
    "run_cut_short": (
        _HEADER
        + "\npopart,0.01,0.1,2,1,1.5,2.5\npopart,0.01,0.1,2,2,1.5,2.5"
        + "\npopart,0.01,0.1,3,1,1.5,2.5\n",
        4,
    ),
    # two cells of one run each, the second cut at a row boundary
    "one_run_cell_cut_short": (
        _HEADER
        + "\npopart,0.01,0.1,2,1,1.5,2.5\npopart,0.01,0.1,2,2,1.5,2.5"
        + "\npopart,0.001,0.1,2,1,1.5,2.5\n",
        4,
    ),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_RESULTS))
def test_plot_malformed_results_is_config_error(tmp_path, capsys, kind):
    text, line = MALFORMED_RESULTS[kind]
    results = tmp_path / "results.csv"
    results.write_text(text)
    plots = tmp_path / "plots"
    code = main(["plot", "--results", str(results), "--out", str(plots)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"{results}, line {line}: " in err[0]
    assert not plots.exists()


@pytest.mark.parametrize(
    ("alpha", "beta", "seed", "shown"),
    [
        ("inf", "-3.0", "-7", "alpha: inf"),
        ("0.0", "0.1", "2", "alpha: 0.0"),
        ("nan", "0.1", "2", "alpha: nan"),
        ("0.01", "1.5", "2", "beta: 1.5"),
        ("0.01", "0.0", "2", "beta: 0.0"),
        ("0.01", "0.1", "-7", "seed: -7"),
    ],
)
def test_plot_rejects_a_run_no_config_runs(tmp_path, capsys, alpha, beta, seed, shown):
    # plot charted a run at alpha inf, beta -3.0 and seed -7, which binreg
    # never writes: each value is checked by ExperimentConfig's own rule
    # at the first line of its run
    results = tmp_path / "results.csv"
    rows = "".join(f"\npopart,{alpha},{beta},{seed},{step},1.5,2.5" for step in (1, 2, 3))
    results.write_text(_HEADER + rows + "\n")
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(results), "--out", str(plots)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: malformed results file {results}, line 2: invalid {shown}\n"
    assert not plots.exists()


def test_plot_rejects_a_file_cut_mid_row(tmp_path, capsys):
    # a 40-sample run cut 4 bytes short read as 40 steps, its last
    # grad_norm cut to 2.150773394395; every cut that does not follow a line
    # break raises at the line it cut.  A cut at a line break of a file
    # with one run still reads as a shorter run
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, {**TINY_BINREG, "n_repetitions": 1})
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    data = (out / "results.csv").read_bytes()
    cut, plots = tmp_path / "cut.csv", tmp_path / "plots"
    capsys.readouterr()
    for end in range(len(data)):
        if data[end - 1 : end] == b"\n":
            continue
        cut.write_bytes(data[:end])
        line = data[:end].count(b"\n") + 1
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}, line {line}: ") as caught:
            read_results_csv(str(cut))
        if end == len(data) - 4:
            assert str(caught.value).endswith("the last row has no line break: the file is cut short")
        assert main(["plot", "--results", str(cut), "--out", str(plots)]) == EXIT_CONFIG, end
        assert capsys.readouterr().err == f"config error: malformed results file {caught.value}\n"
        assert not plots.exists()


def test_plot_reads_a_seed_past_sys_maxsize_that_binreg_writes(tmp_path):
    # a run's seed is base_seed plus its repetition, which passes
    # sys.maxsize when base_seed is sys.maxsize
    config = {**TINY_BINREG, "methods": ["popart"], "n_repetitions": 2, "base_seed": sys.maxsize}
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, config)
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    records = read_results_csv(str(out / "results.csv"))
    assert [r.seed for r in records] == [sys.maxsize, sys.maxsize + 1]
    plots = tmp_path / "plots"
    assert main(["plot", "--results", str(out / "results.csv"), "--out", str(plots)]) == EXIT_OK


@pytest.mark.parametrize("window", ["0", "-3"])
def test_plot_window_below_one_is_config_error(tmp_path, capsys, window):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, TINY_BINREG)
    assert main(["binreg", "--config", cfg, "--out", str(out)]) == EXIT_OK
    plots = tmp_path / "plots"
    args = ["plot", "--results", str(out / "results.csv"), "--out", str(plots)]
    assert main([*args, "--window", window]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: invalid window: {window} (must be at least 1)\n"
    assert not plots.exists()


def test_plot_missing_results_is_io_error(tmp_path):
    code = main(
        ["plot", "--results", str(tmp_path / "none.csv"), "--out", str(tmp_path / "p")]
    )
    assert code == EXIT_IO


def test_verify_prints_a_row_per_check_and_exits_by_the_result(capsys, monkeypatch):
    # every check at its gate size runs in test_acceptance; here two fast
    # real checks give the table, then a failing fake one the exit code
    fast = (checks.check_init_independence, checks.check_batch_equivalence)
    monkeypatch.setattr(checks, "ALL_CHECKS", fast)
    assert main(["verify"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()
    assert [row[:25] for row in rows] == ["init independence  PASS  ", "batch equivalence  PASS  "]

    def failing():
        return checks.CheckResult("fails", False, "on purpose", 0.0)

    monkeypatch.setattr(checks, "ALL_CHECKS", (*fast, failing))
    assert main(["verify"]) == EXIT_VERIFY_FAILED
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and rows[2].startswith("fails              FAIL  (")
    assert rows[2].endswith("s)  on purpose")


def test_no_partial_files_on_failure(tmp_path):
    # a run that errors before finishing must not leave partial outputs
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, {"methods": ["bogus"]})
    code = main(["binreg", "--config", cfg, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not (out / "results.csv").exists()
    assert not (out / "summary.json").exists()
